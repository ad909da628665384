// Seed-1 golden values. A workload's output digest (FNV-1a of its
// deterministic output, see README.md) and the traced rep's deterministic
// work counts must match these exactly when mra_bench runs with --seed=1;
// any other seed is checked for agreement between reps instead. A change
// that moves one of these changes the system's behaviour: re-pin only on
// purpose, in the same change, and say why.
#pragma once

#include <cstdint>
#include <string_view>

namespace mra_bench {

struct Pin {
  std::string_view workload;
  bool smoke = false;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;    ///< sim.events of the traced rep
  std::uint64_t messages = 0;  ///< net.messages of the traced rep
  std::uint64_t bytes = 0;     ///< net.bytes of the traced rep
};

// fabric-spool's digest is also that of `mra_fabric --local --grid replicated
// --scenario paper-phi80 --scenario high-load-phi4 --algo lass --algo
// lass-loan --reps 12 --quick --seed 1` (run_local's reference output).
inline constexpr Pin kPins[] = {
    {"fig5-grid", false, 0xdba186c9b9e513ddULL, 439769, 380949, 63569968},
    {"substrate-mix", false, 0xa2c320a574eea8c2ULL, 2492342, 2074601, 100039996},
    {"bigscale-lass", false, 0xe16afb4cfd13cb5cULL, 409990, 400507, 2631303956},
    {"observed-lass", false, 0xfe26c0a2d753250fULL, 219173, 198437, 30120560},
    {"explore-dpor", false, 0x58688e2ea162fbddULL, 99797, 83805, 10104836},
    {"fabric-spool", false, 0xa584d361df94ca27ULL, 555009, 521725, 136492554},
    {"fig5-grid", true, 0xcf96d905820590c0ULL, 89201, 75169, 13905222},
    {"substrate-mix", true, 0xa40d9ae226757d6aULL, 520218, 432159, 20860752},
    {"bigscale-lass", true, 0xcbe63aab6e3d5846ULL, 202298, 196373, 278452332},
    {"observed-lass", true, 0x44b96e7259ed987fULL, 60685, 54541, 8551438},
    {"explore-dpor", true, 0xf98ec3142c3c4be8ULL, 9451, 7970, 956112},
    {"fabric-spool", true, 0xeda7b56be8502b51ULL, 46469, 43673, 11494890},
};

}  // namespace mra_bench
