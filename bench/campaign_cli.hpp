// Shared CLI handling for the campaign-driven bench binaries.
//
// Every campaign binary accepts `--jobs=N` (or the OSIRIS_JOBS environment
// variable; the flag wins) to shard its injection plan across N worker
// threads. N=1 is the serial reference run, N=0 resolves to
// hardware_concurrency. Output is byte-identical across all N because
// results are merged in plan order.
//
// OSIRIS_SAMPLE=N thins a plan to every Nth injection. Unset means the
// binary's default; a value that is not a positive integer means 1 (keep
// every injection).
#pragma once

#include <cstdlib>
#include <cstring>
#include <vector>

namespace osiris::bench {

inline unsigned parse_jobs(int argc, char** argv, unsigned def = 1) {
  unsigned jobs = def;
  if (const char* env = std::getenv("OSIRIS_JOBS")) {
    jobs = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = static_cast<unsigned>(std::strtoul(argv[i] + 7, nullptr, 10));
    } else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  return jobs;
}

/// The thinning stride an OSIRIS_SAMPLE value asks for (`value` == nullptr:
/// unset).
inline std::size_t parse_sample(const char* value, std::size_t def) {
  if (value == nullptr) return def;
  std::size_t n = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 1;
    if (n < 1'000'000'000) n = n * 10 + static_cast<std::size_t>(*p - '0');  // saturate
  }
  return n < 1 ? 1 : n;
}

inline std::size_t sample_stride(std::size_t def = 1) {
  return parse_sample(std::getenv("OSIRIS_SAMPLE"), def);
}

/// Every `stride`-th element of `plan`, starting with the first.
template <typename T>
std::vector<T> every_nth(const std::vector<T>& plan, std::size_t stride) {
  std::vector<T> out;
  for (std::size_t i = 0; i < plan.size(); i += stride) out.push_back(plan[i]);
  return out;
}

}  // namespace osiris::bench
