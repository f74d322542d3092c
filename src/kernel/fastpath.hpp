// Fast-path configuration for the IPC substrate (DESIGN.md §14).
//
// zero_copy: route bulk payloads (above kZeroCopyThreshold) through
// kernel-checked grant spans instead of staging them through a heap buffer
// and safecopy. Consumed by the VFS read/write paths. Off by default so the
// baseline serving column measures the pre-optimization system; golden
// traces pin observational equivalence across the flag.
#pragma once

#include <cstddef>

#include "kernel/message.hpp"

namespace osiris::kernel {

struct FastPath {
  bool zero_copy = false;
};

/// Payloads strictly larger than this go through grant spans when zero_copy
/// is set; at or below, the staging copy is cheaper than the grant check.
/// Matches the inline message text capacity.
inline constexpr std::size_t kZeroCopyThreshold = kMsgTextCap;

}  // namespace osiris::kernel
