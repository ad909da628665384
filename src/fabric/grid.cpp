#include "fabric/grid.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "algo/factory.hpp"
#include "check/explore.hpp"
#include "core/wire.hpp"
#include "experiment/replicate.hpp"
#include "fabric/result.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mra::fabric {

const char* to_string(GridKind k) {
  switch (k) {
    case GridKind::kSweep: return "sweep";
    case GridKind::kReplicated: return "replicated";
    case GridKind::kExplore: return "explore";
  }
  return "?";
}

GridKind grid_kind_from_name(const std::string& name) {
  if (name == "sweep") return GridKind::kSweep;
  if (name == "replicated") return GridKind::kReplicated;
  if (name == "explore") return GridKind::kExplore;
  throw std::invalid_argument("unknown grid kind '" + name +
                              "' (sweep | replicated | explore)");
}

namespace {

void append_name_list(std::string& out,
                      const std::vector<std::string>& names) {
  out += '[';
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ',';
    wire::append_string(out, names[i]);
  }
  out += ']';
}

void check_count(std::uint64_t value, std::uint64_t min, const char* field,
                 const char* flag) {
  if (value >= min && value <= GridSpec::kMaxCount) return;
  throw std::invalid_argument("grid: " + std::string(field) + " (" + flag +
                              ") must be in [" + std::to_string(min) + ", " +
                              std::to_string(GridSpec::kMaxCount) + "], got " +
                              std::to_string(value));
}

std::vector<std::string> read_name_list(wire::Cursor& c) {
  std::vector<std::string> names;
  c.expect("[");
  while (!c.peek(']')) {
    names.push_back(c.read_string());
    if (c.peek(',')) c.expect(",");
  }
  c.expect("]");
  return names;
}

}  // namespace

std::string GridSpec::serialize() const {
  std::string out = "{\"kind\":";
  wire::append_string(out, to_string(kind));
  out += ",\"scenarios\":";
  append_name_list(out, scenarios);
  out += ",\"algorithms\":";
  append_name_list(out, algorithms);
  out += ",\"replications\":" + std::to_string(replications);
  out += ",\"seeds_per_job\":" + std::to_string(seeds_per_job);
  out += ",\"explore_jobs\":" + std::to_string(explore_jobs);
  out += ",\"quick\":";
  out += quick ? "true" : "false";
  out += ",\"seed_set\":";
  out += seed_set ? "true" : "false";
  out += ",\"seed\":" + std::to_string(seed);
  out += '}';
  return out;
}

GridSpec GridSpec::parse(std::string_view text) {
  wire::Cursor c(text, "fabric wire");
  GridSpec g = read(c);
  c.expect_end();
  return g;
}

GridSpec GridSpec::read(wire::Cursor& c) {
  GridSpec g;
  c.expect("{\"kind\":");
  g.kind = grid_kind_from_name(c.read_string());
  c.expect(",\"scenarios\":");
  g.scenarios = read_name_list(c);
  c.expect(",\"algorithms\":");
  g.algorithms = read_name_list(c);
  c.expect(",\"replications\":");
  g.replications = c.read_u64();
  c.expect(",\"seeds_per_job\":");
  g.seeds_per_job = c.read_u64();
  c.expect(",\"explore_jobs\":");
  g.explore_jobs = c.read_u64();
  c.expect(",\"quick\":");
  g.quick = c.consume("true");
  if (!g.quick) c.expect("false");
  c.expect(",\"seed_set\":");
  g.seed_set = c.consume("true");
  if (!g.seed_set) c.expect("false");
  c.expect(",\"seed\":");
  g.seed = c.read_u64();
  c.expect("}");
  return g;
}

void GridSpec::validate() const {
  const bool replicated = kind == GridKind::kReplicated;
  const bool explore = kind == GridKind::kExplore;
  check_count(scenarios.size(), 1, "scenarios", "--scenario");
  check_count(algorithms.size(), 1, "algorithms", "--algo");
  check_count(replications, replicated ? 1 : 0, "replications", "--reps");
  check_count(seeds_per_job, explore ? 1 : 0, "seeds_per_job", "--seeds");
  check_count(explore_jobs, explore ? 1 : 0, "explore_jobs", "--jobs");
  if (!explore) {
    // Each factor is at most kMaxCount, so no partial product wraps.
    std::uint64_t jobs = scenarios.size() * algorithms.size();
    if (replicated && jobs <= kMaxCount) jobs *= replications;
    if (jobs > kMaxCount) {
      throw std::invalid_argument(
          std::string("grid: job count (--scenario x --algo") +
          (replicated ? " x --reps" : "") + ") must be at most " +
          std::to_string(kMaxCount));
    }
  }
  for (const std::string& name : scenarios) {
    (void)scenario::find_scenario(name);  // throws listing valid names
  }
  for (const std::string& name : algorithms) {
    (void)algo::algorithm_from_name(name);
  }
}

std::size_t GridSpec::job_count() const {
  switch (kind) {
    case GridKind::kSweep: return scenarios.size() * algorithms.size();
    case GridKind::kReplicated:
      return scenarios.size() * algorithms.size() * replications;
    case GridKind::kExplore: return explore_jobs;
  }
  return 0;
}

std::string GridSpec::job_label(std::size_t index) const {
  if (kind == GridKind::kExplore) {
    return "explore:" + std::to_string(index);
  }
  std::size_t pair = index;
  if (kind == GridKind::kReplicated) pair = index / replications;
  return scenarios[pair / algorithms.size()];
}

std::vector<scenario::ScenarioSpec> GridSpec::resolve_scenarios() const {
  std::vector<scenario::ScenarioSpec> specs;
  specs.reserve(scenarios.size());
  for (const std::string& name : scenarios) {
    specs.push_back(scenario::find_scenario(name));
  }
  for (scenario::ScenarioSpec& s : specs) {
    if (seed_set) s.system.seed = seed;
    if (quick) {
      s.warmup = sim::from_ms(300);
      s.measure = sim::from_ms(1500);
    }
  }
  return specs;
}

std::string GridSpec::run_job(std::size_t index) const {
  if (index >= job_count()) {
    throw std::out_of_range("grid: job index " + std::to_string(index) +
                            " out of range (" + std::to_string(job_count()) +
                            " jobs)");
  }
  if (kind == GridKind::kExplore) {
    check::ExploreConfig cfg;
    cfg.scenarios = resolve_scenarios();
    for (const std::string& name : algorithms) {
      cfg.algorithms.push_back(algo::algorithm_from_name(name));
    }
    static_assert(kMaxCount <= std::numeric_limits<int>::max());
    cfg.seeds_per_case = static_cast<int>(seeds_per_job);
    // Disjoint seed range per job: the report of the whole sweep is the
    // concatenation of per-job reports, independent of how jobs shard
    // across workers.
    cfg.base_seed = seed + static_cast<std::uint64_t>(index) * seeds_per_job;
    cfg.stop_on_first = false;
    cfg.threads = 1;
    cfg.minimize_budget = 0;
    const check::ExploreReport report = check::explore(cfg);
    std::string out = "{\"job\":" + std::to_string(index);
    out += ",\"base_seed\":" + std::to_string(cfg.base_seed);
    out += ",\"runs\":" + std::to_string(report.runs);
    out += ",\"violating_runs\":" + std::to_string(report.violating_runs);
    out += '}';
    return out;
  }

  const std::size_t reps =
      kind == GridKind::kReplicated ? replications : std::size_t{1};
  const std::size_t pair = index / reps;
  const std::size_t rep = index % reps;
  scenario::ScenarioSpec spec =
      resolve_scenarios()[pair / algorithms.size()];
  const algo::Algorithm alg =
      algo::algorithm_from_name(algorithms[pair % algorithms.size()]);
  if (kind == GridKind::kReplicated) {
    spec.system.seed = experiment::replication_seed(spec.system.seed, rep);
  }
  return serialize_result(scenario::run_scenario(spec, alg));
}

std::string Manifest::serialize() const {
  std::string out = "{\"fabric\":1,\"jobs\":" + std::to_string(jobs);
  out += ",\"chunk\":" + std::to_string(chunk);
  out += ",\"grid\":" + grid.serialize();
  out += "}\n";
  return out;
}

Manifest Manifest::parse(std::string_view text) {
  wire::Cursor c(text, "fabric wire");
  Manifest m;
  c.expect("{\"fabric\":1,\"jobs\":");
  m.jobs = c.read_u64();
  c.expect(",\"chunk\":");
  m.chunk = c.read_u64();
  if (m.chunk == 0) {
    throw std::invalid_argument("manifest: chunk must be >= 1");
  }
  c.expect(",\"grid\":");
  m.grid = GridSpec::read(c);
  c.expect("}");
  // serialize() ends the manifest's line, so only whitespace may follow.
  c.skip_ws();
  c.expect_end();
  // Workers partition `jobs` into leases: it must be the grid's own count.
  m.grid.validate();
  if (m.jobs != m.grid.job_count()) {
    throw std::invalid_argument("manifest: jobs " + std::to_string(m.jobs) +
                                " differs from the grid's job count " +
                                std::to_string(m.grid.job_count()));
  }
  return m;
}

}  // namespace mra::fabric
