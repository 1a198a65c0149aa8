#include "trace/csv.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

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
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string ts, op, lpn, np;
    if (!std::getline(ss, ts, ',') || !std::getline(ss, op, ',') ||
        !std::getline(ss, lpn, ',') || !std::getline(ss, np, ','))
      throw std::runtime_error("trace CSV: malformed line " +
                               std::to_string(lineno));
    HostRequest req;
    std::uint64_t num_pages = 0;
    try {
      req.timestamp_us = std::stoull(ts);
      req.start_lpn = std::stoull(lpn);
      num_pages = std::stoull(np);
    } catch (const std::exception&) {
      throw std::runtime_error("trace CSV: bad number on line " +
                               std::to_string(lineno));
    }
    if (op == "W" || op == "w")
      req.op = OpType::kWrite;
    else if (op == "R" || op == "r")
      req.op = OpType::kRead;
    else if (op == "T" || op == "t")
      req.op = OpType::kTrim;
    else
      throw std::runtime_error("trace CSV: bad op on line " +
                               std::to_string(lineno));
    // Overflow-safe: a huge start or count must not wrap into range.
    if (num_pages == 0 || num_pages > UINT32_MAX ||
        req.start_lpn >= logical_pages ||
        num_pages > logical_pages - req.start_lpn)
      throw std::runtime_error("trace CSV: request out of range on line " +
                               std::to_string(lineno));
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
