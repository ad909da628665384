#include "fabric/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "fabric/result.hpp"
#include "fabric/transport.hpp"
#include "obs/heartbeat.hpp"

namespace mra::fabric {

namespace {

std::unique_ptr<Transport> make_transport(const WorkerOptions& opts,
                                          const std::string& name,
                                          const TransportTiming& timing) {
  if (opts.connect.empty()) {
    if (opts.spool.empty()) {
      throw std::invalid_argument(
          "fabric: a worker needs --spool (file backend) or --connect "
          "host:port (tcp backend)");
    }
    return make_file_worker(opts.spool, name, timing);
  }
  const std::size_t colon = opts.connect.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == opts.connect.size()) {
    throw std::invalid_argument("fabric: --connect wants host:port, got '" +
                                opts.connect + "'");
  }
  const std::string host = opts.connect.substr(0, colon);
  const int port = static_cast<int>(
      std::strtol(opts.connect.c_str() + colon + 1, nullptr, 10));
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("fabric: bad port in '" + opts.connect + "'");
  }
  return make_tcp_worker(host, port, name, timing);
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  std::string fallback_name("w");
  fallback_name += std::to_string(::getpid());
  const std::string& name = opts.name.empty() ? fallback_name : opts.name;
  const TransportTiming timing{opts.lease_timeout_sec, opts.poll_interval_sec};
  timing.validate();

  std::unique_ptr<Transport> transport;
  try {
    transport = make_transport(opts, name, timing);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  // Wait for the coordinator to publish; manifest() sleeps a poll interval
  // internally when nothing is there yet.
  std::optional<std::string> manifest_text;
  const int max_waits = std::max(
      1, static_cast<int>(60.0 / std::max(opts.poll_interval_sec, 1e-3)));
  for (int i = 0; i < max_waits && !manifest_text; ++i) {
    if (transport->finished()) return 0;
    manifest_text = transport->manifest();
  }
  if (!manifest_text) {
    std::cerr << "fabric: worker '" << name << "' found no manifest\n";
    return 1;
  }
  const Manifest manifest = Manifest::parse(*manifest_text);
  manifest.grid.validate();

  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::unique_ptr<obs::Heartbeat> heartbeat;
  if (!opts.progress_path.empty()) {
    obs::Heartbeat::Options hopts;
    hopts.phase = "fabric-worker:" + name;
    hopts.progress_path = opts.progress_path;
    const std::uint64_t total = manifest.jobs;
    heartbeat = std::make_unique<obs::Heartbeat>(
        hopts, [&jobs_done, &jobs_failed, total] {
          obs::ProgressSnapshot snap;
          snap.jobs_done = jobs_done.load(std::memory_order_relaxed);
          snap.jobs_failed = jobs_failed.load(std::memory_order_relaxed);
          snap.jobs_total = total;
          return snap;
        });
  }

  while (!transport->finished()) {
    const std::optional<Lease> lease = transport->acquire();
    if (!lease) continue;

    LeaseResult result;
    result.lease = *lease;
    result.payloads.reserve(lease->count);
    bool lost = false;
    for (std::uint64_t j = 0; j < lease->count; ++j) {
      // Renew between jobs; a lost lease was stolen or reissued — whoever
      // holds it now reruns these indices to identical bytes, so just stop.
      if (j != 0 && !transport->keepalive(*lease)) {
        lost = true;
        break;
      }
      const std::uint64_t job = lease->first + j;
      try {
        result.payloads.push_back(
            manifest.grid.run_job(static_cast<std::size_t>(job)));
      } catch (const std::exception& e) {
        result.payloads.push_back(error_payload(e.what()));
        jobs_failed.fetch_add(1, std::memory_order_relaxed);
      }
      jobs_done.fetch_add(1, std::memory_order_relaxed);
    }
    if (!lost) transport->submit(result);
  }
  return 0;
}

}  // namespace mra::fabric
