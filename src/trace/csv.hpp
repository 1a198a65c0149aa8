// CSV serialization for traces.
//
// Format (one request per line, header included):
//   timestamp_us,op,lpn,num_pages
// with op ∈ {R, W}. This mirrors the page-aligned form of the Alibaba Cloud
// block-trace dataset fields (device id is implicit: one file per drive).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace phftl {

void write_trace_csv(const Trace& trace, std::ostream& os);
bool write_trace_csv_file(const Trace& trace, const std::string& path);

/// Parses a trace; throws std::runtime_error naming the line on malformed
/// input: a line without exactly four fields, a numeric field that is not
/// all decimal digits (or exceeds 64 bits), an unknown op, or a request
/// outside `logical_pages`. One trailing '\r' per line is ignored (CRLF
/// files load), as are empty lines. `logical_pages` must be supplied (the
/// CSV stores only requests).
Trace read_trace_csv(std::istream& is, std::uint64_t logical_pages,
                     const std::string& name);
Trace read_trace_csv_file(const std::string& path,
                          std::uint64_t logical_pages);

}  // namespace phftl
