// Trace persistence: a compact binary format and CSV for interoperability
// with other simulators.
//
// Writes produce the v2 columnar layout (see trace_format.h): a stats- and
// fingerprint-carrying header followed by one array per column — including,
// for annotated traces, the trace's next-access column, which the v1 record
// format dropped. The time and tenant columns carry the request index and 0.
// All padding is zero-filled, so the same trace always serializes to
// identical bytes. Reads accept v1 (legacy 24-byte AoS records; never
// annotated) and v2, drop the time and tenant columns, and give a trace read
// from an annotated v2 file its next-access column.
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
// time, id and size are unsigned decimals; a malformed one, or a size above
// 2^32-1, fails with the path and the line.
void WriteCsvTrace(const Trace& trace, const std::string& path);
Trace ReadCsvTrace(const std::string& path);

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_IO_H_
