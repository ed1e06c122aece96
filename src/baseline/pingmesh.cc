#include "baseline/pingmesh.h"

#include "net/packet.h"

namespace flowpulse::baseline {

PingmeshProber::PingmeshProber(sim::Simulator& simulator, net::FatTree& fabric,
                               transport::TransportLayer& transports, PingmeshConfig config)
    : sim_{simulator}, fabric_{fabric}, config_{config}, rng_{simulator.rng().split()} {
  for (const net::HostId h : core::ids<net::HostId>(fabric.num_hosts())) {
    transports.at(h).set_probe_handler(
        [this](const net::Packet& p) { on_probe_received(p.msg_id); });
  }
}

void PingmeshProber::start(sim::Time horizon) {
  horizon_ = horizon;
  round();
}

void PingmeshProber::round() {
  if (sim_.now() >= horizon_) return;
  const std::uint32_t hosts = fabric_.num_hosts();
  for (const net::HostId src : core::ids<net::HostId>(hosts)) {
    for (std::uint32_t i = 0; i < config_.probes_per_round; ++i) {
      net::HostId dst{static_cast<std::uint32_t>(rng_.next_below(hosts - 1))};
      if (dst >= src) ++dst;  // uniform over peers != src

      net::Packet probe;
      probe.flow_id = 0;  // untagged: never counted by FlowPulse monitors
      probe.src = src;
      probe.dst = dst;
      probe.msg_id = next_probe_id_++;
      probe.size_bytes = config_.probe_bytes;
      probe.kind = net::PacketKind::kProbe;
      probe.priority = kProbePriority;

      outstanding_.emplace(probe.msg_id, false);
      ++probes_sent_;
      fabric_.host(src).nic().enqueue(probe);

      const std::uint64_t id = probe.msg_id;
      sim_.schedule_in(kProbeTimeout, [this, id] { on_probe_timeout(id); });
    }
  }
  sim_.schedule_in(config_.interval, [this] { round(); });
}

void PingmeshProber::on_probe_received(std::uint64_t probe_id) {
  auto it = outstanding_.find(probe_id);
  if (it != outstanding_.end()) it->second = true;
}

void PingmeshProber::on_probe_timeout(std::uint64_t probe_id) {
  auto it = outstanding_.find(probe_id);
  if (it == outstanding_.end()) return;
  if (!it->second) {
    ++probes_lost_;
    if (first_loss_ == sim::Time::max()) first_loss_ = sim_.now();
  }
  outstanding_.erase(it);
}

}  // namespace flowpulse::baseline
