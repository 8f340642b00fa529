#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

/// \file request.hpp
/// Memory access requests fed into the bank simulator.

namespace vrl::dram {

enum class RequestType { kRead, kWrite };

struct Request {
  Cycles arrival = 0;        ///< Cycle the request reaches the controller.
  std::size_t bank = 0;
  std::size_t row = 0;
  std::size_t column = 0;
  RequestType type = RequestType::kRead;
};

/// A request as it waits in one bank's queue: 16 bytes, because the bank
/// is implied by the queue and the bank model never reads the column.  The
/// controller's run loops copy each run's requests into contiguous
/// per-bank arrays of these.  Member initializers are left out on purpose,
/// so a freshly allocated queue costs no zeroing pass before it is filled.
struct QueuedRequest {
  Cycles arrival;
  std::uint32_t row;
  RequestType type;
};
static_assert(sizeof(QueuedRequest) == 16, "QueuedRequest is one 16-byte slot");

}  // namespace vrl::dram
