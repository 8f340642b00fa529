#pragma once

#include <cstdint>

#include "common/units.hpp"

/// \file request.hpp
/// Memory access requests fed into the bank simulator.

namespace vrl::dram {

enum class RequestType : std::uint8_t { kRead, kWrite };

/// One request, 16 bytes from trace::MapToRequests to the controller's
/// per-bank queues.  Indices are narrow: the controller rejects more than
/// 65536 banks or 2^32 - 1 rows, and trace::AddressGeometry the geometries
/// whose bank or row would not fit.  The bank model never reads a column,
/// so a request carries none.
struct Request {
  Cycles arrival = 0;        ///< Cycle the request reaches the controller.
  std::uint32_t row = 0;
  std::uint16_t bank = 0;
  RequestType type = RequestType::kRead;
};
static_assert(sizeof(Request) == 16, "Request is one 16-byte slot");

}  // namespace vrl::dram
