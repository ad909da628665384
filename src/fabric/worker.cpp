#include "fabric/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "fabric/result.hpp"
#include "fabric/spool.hpp"
#include "fabric/transport.hpp"
#include "obs/heartbeat.hpp"

namespace mra::fabric {

int run_worker(const WorkerOptions& opts) {
  std::string fallback_name("w");
  fallback_name += std::to_string(::getpid());
  const std::string& name = opts.name.empty() ? fallback_name : opts.name;
  const TransportTiming timing{opts.lease_timeout_sec, opts.poll_interval_sec};
  timing.validate();
  if (opts.spool.empty()) {
    std::cerr << "fabric: a worker needs --spool\n";
    return 1;
  }

  // Wait up to a minute for the coordinator to publish.
  const SpoolPaths paths{opts.spool};
  std::optional<std::string> manifest_text;
  const int max_waits = std::max(
      1, static_cast<int>(60.0 / std::max(opts.poll_interval_sec, 1e-3)));
  for (int i = 0; i < max_waits; ++i) {
    manifest_text = read_file(paths.manifest());
    if (manifest_text) break;
    sleep_poll(timing);
  }
  if (!manifest_text) {
    std::cerr << "fabric: worker '" << name << "' found no manifest\n";
    return 1;
  }
  const Manifest manifest = Manifest::parse(*manifest_text);
  SpoolClaimer claims(paths, name, manifest, timing);

  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  const std::unique_ptr<obs::Heartbeat> heartbeat =
      obs::job_heartbeat("fabric-worker:" + name, opts.progress_path, jobs_done,
                         jobs_failed, manifest.jobs);

  while (!claims.finished()) {
    const std::optional<Lease> lease = claims.acquire();
    if (!lease) continue;

    LeaseResult result;
    result.lease = *lease;
    result.payloads.reserve(lease->count);
    bool lost = false;
    for (std::uint64_t j = 0; j < lease->count; ++j) {
      // Renew between jobs; a lost lease was stolen — whoever holds it now
      // reruns these indices to identical bytes, so just stop.
      if (j != 0 && !claims.keepalive(*lease)) {
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
    if (!lost) claims.submit(result);
  }
  return 0;
}

}  // namespace mra::fabric
