// Trace persistence: a compact binary format and CSV for interoperability
// with other simulators.
//
// Writes produce the v2 columnar layout (see trace_format.h): a stats- and
// fingerprint-carrying header followed by one array per column — including,
// for annotated traces, next_access, which the v1 record format dropped. The
// time and tenant columns carry the request index and 0. All padding is
// zero-filled, so the same trace always serializes to identical bytes. Reads
// accept v1 (legacy 24-byte AoS records; next_access absent) and v2, and drop
// the time and tenant columns.
#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <string>

#include "src/trace/trace.h"

namespace s3fifo {

// All functions throw std::runtime_error on IO or format errors.
void WriteBinaryTrace(const Trace& trace, const std::string& path);
Trace ReadBinaryTrace(const std::string& path);

// CSV columns: time,id,size,op  (op: get|set|delete; time: written as the
// request index, dropped on read). A header line is written and tolerated.
void WriteCsvTrace(const Trace& trace, const std::string& path);
Trace ReadCsvTrace(const std::string& path);

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_IO_H_
