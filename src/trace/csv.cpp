#include "trace/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace phftl {

void write_trace_csv(const Trace& trace, std::ostream& os) {
  os << "timestamp_us,op,lpn,num_pages\n";
  for (const auto& r : trace.ops) {
    os << r.timestamp_us << ','
       << (r.op == OpType::kWrite ? 'W' : r.op == OpType::kRead ? 'R' : 'T')
       << ','
       << r.start_lpn << ',' << r.num_pages << '\n';
  }
}

bool write_trace_csv_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_trace_csv(trace, os);
  return static_cast<bool>(os);
}

namespace {

[[noreturn]] void reject(const char* what, std::size_t lineno) {
  throw std::runtime_error(std::string("trace CSV: ") + what + " on line " +
                           std::to_string(lineno));
}

/// A numeric field: one or more decimal digits and nothing else (no sign,
/// space or suffix), within 64 bits.
std::uint64_t parse_number(std::string_view field, std::size_t lineno) {
  const bool digits_only = !field.empty() &&
                           std::all_of(field.begin(), field.end(), [](char c) {
                             return c >= '0' && c <= '9';
                           });
  std::uint64_t v = 0;
  if (!digits_only ||
      std::from_chars(field.data(), field.data() + field.size(), v).ec !=
          std::errc())
    reject("bad number", lineno);
  return v;
}

}  // namespace

Trace read_trace_csv(std::istream& is, std::uint64_t logical_pages,
                     const std::string& name) {
  Trace trace;
  trace.name = name;
  trace.logical_pages = logical_pages;

  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error("trace CSV: empty input");
  // Header is mandatory; tolerate a BOM.
  if (line.find("timestamp_us") == std::string::npos)
    throw std::runtime_error("trace CSV: missing header line");

  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    // CRLF files: drop the one carriage return getline leaves behind.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::string_view fields[4];
    std::size_t n = 0, start = 0;
    for (;;) {
      const std::size_t comma = line.find(',', start);
      if (n == 4) reject("more than four fields", lineno);
      fields[n++] = std::string_view(line).substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (n < 4) reject("fewer than four fields", lineno);
    HostRequest req;
    req.timestamp_us = parse_number(fields[0], lineno);
    req.start_lpn = parse_number(fields[2], lineno);
    const std::uint64_t num_pages = parse_number(fields[3], lineno);
    const std::string_view op = fields[1];
    if (op == "W" || op == "w")
      req.op = OpType::kWrite;
    else if (op == "R" || op == "r")
      req.op = OpType::kRead;
    else if (op == "T" || op == "t")
      req.op = OpType::kTrim;
    else
      reject("bad op", lineno);
    // Overflow-safe: a huge start or count must not wrap into range.
    if (num_pages == 0 || num_pages > UINT32_MAX ||
        req.start_lpn >= logical_pages ||
        num_pages > logical_pages - req.start_lpn)
      reject("request out of range", lineno);
    req.num_pages = static_cast<std::uint32_t>(num_pages);
    trace.ops.push_back(req);
  }
  return trace;
}

Trace read_trace_csv_file(const std::string& path,
                          std::uint64_t logical_pages) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace CSV: cannot open " + path);
  return read_trace_csv(is, logical_pages, path);
}

}  // namespace phftl
