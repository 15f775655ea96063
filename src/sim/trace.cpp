#include "sim/trace.hpp"

namespace dgap {

// Out-of-line virtual anchor plus empty default implementations: a sink
// overrides only the hooks it consumes.
TraceSink::~TraceSink() = default;
void TraceSink::on_run_begin(NodeId, const EngineOptions&) {}
void TraceSink::on_round_begin(int, NodeId) {}
void TraceSink::on_message(const TraceMessage&) {}
void TraceSink::on_termination(int, NodeId, Value,
                               std::span<const std::pair<NodeId, Value>>) {}
void TraceSink::on_run_end(const RunResult&) {}

}  // namespace dgap
