#include "trace/address.hpp"

#include <cstdint>
#include <limits>

namespace vrl::trace {

void AddressGeometry::Validate() const {
  if (banks == 0 || rows == 0 || columns == 0) {
    throw ConfigError("AddressGeometry: all dimensions must be non-zero");
  }
  if (banks > std::uint64_t{1} << 16) {
    throw ConfigError("AddressGeometry: banks must fit a 16-bit bank index");
  }
  if (rows > std::uint64_t{1} << 32) {
    throw ConfigError("AddressGeometry: rows must fit a 32-bit row index");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t bank_rows = std::uint64_t{banks} * rows;  // <= 2^48
  if (columns > kMax / bank_rows) {
    throw ConfigError(
        "AddressGeometry: banks * rows * columns overflows 64 bits");
  }
}

AddressMapper::AddressMapper(const AddressGeometry& geometry)
    : geometry_(geometry) {
  geometry_.Validate();
}

AddressMapper::Coordinates AddressMapper::Decode(std::uint64_t address) const {
  const std::uint64_t wrapped = address % geometry_.TotalLines();
  Coordinates c;
  c.bank = static_cast<std::size_t>(wrapped % geometry_.banks);
  const std::uint64_t rest = wrapped / geometry_.banks;
  c.column = static_cast<std::size_t>(rest % geometry_.columns);
  c.row = static_cast<std::size_t>(rest / geometry_.columns % geometry_.rows);
  return c;
}

std::uint64_t AddressMapper::Encode(const Coordinates& c) const {
  if (c.bank >= geometry_.banks || c.row >= geometry_.rows ||
      c.column >= geometry_.columns) {
    throw ConfigError("AddressMapper::Encode: coordinates out of range");
  }
  return (static_cast<std::uint64_t>(c.row) * geometry_.columns + c.column) *
             geometry_.banks +
         c.bank;
}

std::vector<dram::Request> MapToRequests(
    const std::vector<TraceRecord>& records, const AddressMapper& mapper) {
  std::vector<dram::Request> requests;
  requests.reserve(records.size());
  for (const TraceRecord& rec : records) {
    const auto c = mapper.Decode(rec.address);
    // The mapper's validated geometry keeps bank < 2^16 and row < 2^32.
    dram::Request r;
    r.arrival = rec.cycle;
    r.row = static_cast<std::uint32_t>(c.row);
    r.bank = static_cast<std::uint16_t>(c.bank);
    r.type = rec.is_write ? dram::RequestType::kWrite : dram::RequestType::kRead;
    requests.push_back(r);
  }
  return requests;
}

}  // namespace vrl::trace
