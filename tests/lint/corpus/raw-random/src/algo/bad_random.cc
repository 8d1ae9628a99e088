// wsnq-lint corpus: raw-random. Sequential/OS randomness outside
// src/util/rng.* breaks seeded reproducibility. NOT compiled.

#include <random>

int Draw() {
  std::mt19937 gen(42);        // lint-expect: raw-random
  std::random_device entropy;  // lint-expect: raw-random
  (void)entropy;
  return rand();  // lint-expect: raw-random
}

// A name nested in an engine type still names the engine.
using Word = std::mt19937::result_type;  // lint-expect: raw-random

// Negatives: identifiers that merely contain the banned tokens.
int Brand() { return 0; }
int strand_count = 0;
