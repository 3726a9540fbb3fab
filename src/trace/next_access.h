// Next-access annotation: gives the trace its next-access column, whose entry
// i is the index of the subsequent request to the same id (kNeverAccessed if
// none). One reverse pass, O(n) time, O(distinct ids) space. Required by the
// Belady policy and the quick-demotion precision analysis (§6.1).
#ifndef SRC_TRACE_NEXT_ACCESS_H_
#define SRC_TRACE_NEXT_ACCESS_H_

#include "src/trace/trace.h"

namespace s3fifo {

void AnnotateNextAccess(Trace& trace);

}  // namespace s3fifo

#endif  // SRC_TRACE_NEXT_ACCESS_H_
