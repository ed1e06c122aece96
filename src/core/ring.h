#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace flowpulse::core {

/// FIFO queue on one contiguous power-of-two circular buffer.
///
/// Built for the simulator's per-packet queues (egress classes, the event
/// queue's constant-delay FIFOs), where std::deque costs a 576-byte map
/// plus node allocation at construction and a fresh node every few pushes.
/// A Ring allocates nothing until its first push, then only when it
/// doubles, and a steady-state push/pop touches one slot and two indices.
///
/// Slots are ordinary T objects: pop_front() moves the element out and
/// leaves a moved-from T in its slot until a later push assigns over it,
/// so T must be default-constructible and move-assignable (move-only types
/// are fine). Growth moves every element once; references and indices are
/// invalidated by push_back, so push_back must not be handed an element of
/// the same ring.
template <typename T>
class Ring {
 public:
  /// Slots allocated by the first push_back; each growth doubles.
  static constexpr std::size_t kInitialCapacity = 4;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Oldest element. Must not be called when empty().
  [[nodiscard]] const T& front() const { return slots_[head_]; }
  /// Newest element. Must not be called when empty().
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }
  /// The i-th oldest element, i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(const T& value) { append() = value; }
  void push_back(T&& value) { append() = std::move(value); }

  /// Remove and return the oldest element. Must not be called when empty().
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  /// Claim the slot after the tail, growing first if the buffer is full.
  T& append() {
    if (size_ == slots_.size()) grow();
    return slots_[(head_ + size_++) & (slots_.size() - 1)];
  }

  void grow() {
    std::vector<T> next(slots_.empty() ? kInitialCapacity : 2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(slots_[(head_ + i) & mask]);
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace flowpulse::core
