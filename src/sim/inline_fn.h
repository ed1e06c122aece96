#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace flowpulse::sim {

/// Move-only callable with fixed inline storage and **no heap fallback**.
///
/// The simulator executes one callable per event — at least one per packet
/// hop, millions per collective iteration — so the event unit of work must
/// never allocate. `std::function` heap-allocates any capture larger than
/// its (implementation-defined, typically 16-byte) small buffer;
/// BasicInlineFn instead static-asserts at the call site that the capture
/// fits its fixed buffer, turning an accidental fat capture into a compile
/// error instead of a silent per-event malloc.
///
/// Captures must be nothrow-move-constructible. Trivially-copyable
/// captures (every in-tree event lambda: pointers + integers) move as a
/// plain memcpy with no manager dispatch.
template <std::size_t Capacity>
class BasicInlineFn {
 public:
  static constexpr std::size_t kCapacity = Capacity;
  /// Pointer alignment, not max_align_t: every in-tree capture is pointers
  /// + integers, and the looser alignment is what lets a 24-byte-capacity
  /// InlineFn pack to 40 bytes (24 + two function pointers) instead of
  /// rounding up to 48 — the provenance-keyed HeapEntry needs the room.
  static constexpr std::size_t kAlign = alignof(void*);

  BasicInlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, BasicInlineFn>>>
  BasicInlineFn(F&& f) noexcept {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture exceeds BasicInlineFn capacity — it would heap-allocate "
                  "under std::function; shrink the capture (capture `this` and look "
                  "state up at fire time) or raise the capacity deliberately");
    static_assert(alignof(Fn) <= kAlign, "over-aligned event capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event captures must be nothrow-movable (the event heap sifts by move)");
    if constexpr (sizeof(Fn) < kCapacity) {
      // Moves memcpy the whole buffer; keep the tail initialized.
      std::memset(buf_ + sizeof(Fn), 0, kCapacity - sizeof(Fn));
    }
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (!(std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>)) {
      manage_ = &manage_impl<Fn>;
    }
  }

  BasicInlineFn(BasicInlineFn&& o) noexcept { move_from(o); }
  BasicInlineFn& operator=(BasicInlineFn&& o) noexcept {
    if (this != &o) {
      destroy();
      move_from(o);
    }
    return *this;
  }
  BasicInlineFn(const BasicInlineFn&) = delete;
  BasicInlineFn& operator=(const BasicInlineFn&) = delete;
  ~BasicInlineFn() { destroy(); }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  enum class Op : unsigned char { kMoveDestroy, kDestroy };

  template <typename Fn>
  static void manage_impl(Op op, void* self, void* other) noexcept {
    switch (op) {
      case Op::kMoveDestroy: {
        Fn* src = static_cast<Fn*>(other);
        ::new (self) Fn(std::move(*src));
        src->~Fn();
        break;
      }
      case Op::kDestroy:
        static_cast<Fn*>(self)->~Fn();
        break;
    }
  }

  void move_from(BasicInlineFn& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (invoke_ != nullptr) {
      if (manage_ == nullptr) {
        std::memcpy(buf_, o.buf_, kCapacity);
      } else {
        manage_(Op::kMoveDestroy, buf_, o.buf_);
      }
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  void destroy() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void*, void*) = nullptr;
};

/// The event-queue callable. Capacity is 24 bytes: exactly the largest
/// in-tree event capture (`this` plus a handful of ids), and it keeps a
/// queued event (fire time + schedule time + packed provenance + InlineFn)
/// at exactly one 64-byte cache line. A fatter capture fails to compile —
/// raise this deliberately (and re-measure BM_*Events) if one ever needs
/// more.
using InlineFn = BasicInlineFn<24>;

/// The cross-lane mailbox callable (see event_lane.h). A boundary delivery
/// must carry the whole Packet by value — the source lane's state cannot be
/// dereferenced at the destination lane's fire time — so it needs a fatter
/// buffer: `this` + Packet (~64 B) with headroom. Mailbox messages never
/// enter the event queue directly (they are parked in a per-lane arena and
/// fired through a thin trampoline), so the 64-byte event budget is
/// unaffected.
using LaneFn = BasicInlineFn<96>;

}  // namespace flowpulse::sim
