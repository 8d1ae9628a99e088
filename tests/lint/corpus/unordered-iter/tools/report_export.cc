// wsnq-lint corpus: unordered_set iteration in export/write paths —
// both range-for and explicit iterator walks. NOT compiled.

#include <string>
#include <unordered_set>

namespace corpus {

std::unordered_set<std::string> g_names;

int ExportNames() {
  int n = 0;
  for (const auto& name : g_names) {  // lint-expect: unordered-iter
    n += static_cast<int>(name.size());
  }
  return n;
}

void WriteNames() {
  for (auto it = g_names.begin(); it != g_names.end(); ++it) {  // lint-expect: unordered-iter
  }
}

// Negative: counting in a non-output context is quiet.
int CountNames() {
  int n = 0;
  for (const auto& name : g_names) {
    n += 1;
  }
  return n;
}

}  // namespace corpus
