#include "flowpulse/streaming_detector.h"

#include <cmath>
#include <limits>

namespace flowpulse::fp {

StreamingDetector::StreamingDetector(net::LeafId leaf, std::uint32_t uplinks,
                                     std::uint32_t leaves, StreamingConfig config)
    : leaf_{leaf},
      uplinks_{uplinks},
      leaves_{leaves},
      config_{config},
      ports_(uplinks),
      src_mean_(static_cast<std::size_t>(uplinks) * leaves, 0.0) {}

void StreamingDetector::seed(const PortLoadMap& prediction) {
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(uplinks_)) {
    const PortLoad& load = prediction.at(leaf_, u);
    PortStat& st = ports_[u.v()];
    st.state = PortState::kTrack;
    st.samples = config_.warmup_iterations;
    st.mean = load.total;
    st.var = 0.0;  // the floor takes over until measured variance exists
    for (const net::LeafId s : core::ids<net::LeafId>(leaves_)) {
      src_mean_[static_cast<std::size_t>(u.v()) * leaves_ + s.v()] = load.by_src_leaf[s.v()];
    }
  }
}

void StreamingDetector::reset() {
  for (PortStat& st : ports_) st = PortStat{};
  for (double& m : src_mean_) m = 0.0;
}

DetectionResult StreamingDetector::observe(const IterationRecord& record) {
  DetectionResult result;
  result.leaf = record.leaf;
  result.iteration = record.iteration;
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(uplinks_)) {
    PortStat& st = ports_[u.v()];
    const double x = record.bytes[u.v()];
    double* src = &src_mean_[static_cast<std::size_t>(u.v()) * leaves_];

    if (st.state == PortState::kWarmup) {
      // Learn only; never judge a baseline that doesn't exist yet.
      if (st.samples == 0) {
        st.mean = x;
        for (std::uint32_t s = 0; s < leaves_; ++s) src[s] = record.by_src[u.v()][s];
      } else {
        const double diff = x - st.mean;
        const double incr = config_.alpha * diff;
        st.mean += incr;
        st.var = (1.0 - config_.alpha) * (st.var + diff * incr);
        for (std::uint32_t s = 0; s < leaves_; ++s) {
          src[s] += config_.alpha * (record.by_src[u.v()][s] - src[s]);
        }
      }
      if (++st.samples >= config_.warmup_iterations) st.state = PortState::kTrack;
      continue;
    }

    // Judge against the frozen pre-update statistics.
    const double floor = kVarFloorRel * st.mean;
    const double sigma = std::sqrt(std::max(st.var, floor * floor));
    const double diff = x - st.mean;
    const double z = sigma > 0.0 ? diff / sigma
                                 : (diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity());
    const double rel = relative_deviation(x, st.mean);
    const bool alerted = std::fabs(z) > kZThreshold && rel > kMinRelDev;
    if (rel > result.max_rel_dev) result.max_rel_dev = rel;

    if (alerted) {
      st.state = PortState::kAlert;
      PortAlert alert;
      alert.uplink = u;
      alert.observed = x;
      alert.predicted = st.mean;
      alert.rel_dev = rel;
      // Localize against the per-sender EWMA means, reusing the threshold
      // detector's verdict logic so downstream consumers see one taxonomy.
      PortLoad predicted{leaves_};
      predicted.total = st.mean;
      for (std::uint32_t s = 0; s < leaves_; ++s) predicted.by_src_leaf[s] = src[s];
      alert.localization = localize(record, predicted, u, kMinRelDev);
      result.alerts.push_back(std::move(alert));
      // Frozen: a faulty iteration must not drag the baseline toward itself.
      continue;
    }

    st.state = PortState::kTrack;
    const double incr = config_.alpha * diff;
    st.mean += incr;
    st.var = (1.0 - config_.alpha) * (st.var + diff * incr);
    for (std::uint32_t s = 0; s < leaves_; ++s) {
      src[s] += config_.alpha * (record.by_src[u.v()][s] - src[s]);
    }
    ++st.samples;
  }
  return result;
}

std::size_t StreamingDetector::state_bytes() const {
  return sizeof(*this) + ports_.capacity() * sizeof(PortStat) +
         src_mean_.capacity() * sizeof(double);
}

}  // namespace flowpulse::fp
