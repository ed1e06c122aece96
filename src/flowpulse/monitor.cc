#include "flowpulse/monitor.h"

#include <algorithm>

namespace flowpulse::fp {

void PortMonitor::begin_iteration(net::IterIndex iteration) {
  current_ = iteration;
  accum_ = IterationRecord{};
  accum_.leaf = row_;
  accum_.iteration = iteration;
  accum_.bytes.assign(tier_.ports, 0.0);
  accum_.by_src.assign(tier_.ports, std::vector<double>(tier_.senders, 0.0));
}

void PortMonitor::record(net::UplinkIndex port, const net::Packet& p) {
  // Select only the measured collective's data traffic: the sentinel plus
  // job id filters out ACKs, probes and other jobs (§5.1).
  if (p.kind != net::PacketKind::kData) return;
  if (!net::flowid::is_collective(p.flow_id)) return;
  if (net::flowid::job_of(p.flow_id) != job_) return;

  const net::IterIndex iter = net::flowid::iteration_of(p.flow_id);
  if (!current_.has_value()) {
    begin_iteration(iter);
  } else if (iter > *current_) {
    finalize();
    begin_iteration(iter);
  }
  // Packets tagged with an older iteration than the one being accumulated
  // (late duplicates) are counted into the current window — the switch has
  // already closed their iteration and cannot rewrite history.

  accum_.bytes[port.v()] += p.size_bytes.dbl();
  accum_.by_src[port.v()][p.src.v() / tier_.hosts_per_sender] += p.size_bytes.dbl();
  accum_.packets += 1;
#if FP_AUDIT_ENABLED
  audit_bytes_[port.v()] += p.size_bytes.v();
#endif
}

void PortMonitor::finalize() {
  history_.push_back(accum_);
  if (finalize_hook_) finalize_hook_(history_.back());
  current_.reset();
}

void PortMonitor::flush() {
  if (current_.has_value()) finalize();
}

std::vector<const IterationRecord*> take_new_records(
    const std::vector<std::unique_ptr<PortMonitor>>& monitors, std::vector<std::size_t>& taken) {
  taken.resize(monitors.size(), 0);
  std::vector<const IterationRecord*> pending;
  for (std::size_t m = 0; m < monitors.size(); ++m) {
    const auto& history = monitors[m]->history();
    for (std::size_t i = taken[m]; i < history.size(); ++i) pending.push_back(&history[i]);
    taken[m] = history.size();
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const IterationRecord* a, const IterationRecord* b) {
                     if (a->iteration.v() != b->iteration.v()) {
                       return a->iteration.v() < b->iteration.v();
                     }
                     return a->leaf.v() < b->leaf.v();
                   });
  return pending;
}

}  // namespace flowpulse::fp
