// Shared pieces of the repository benchmark: options, the run's output
// (metrics, record, checks), /proc memory readings and the per-layer probes
// every workload runs in its traced mode.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/attack/attack.h"
#include "src/eval/pipeline.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;         ///< Tiny sizes, for the benchmark's own test.
  std::string out_dir = ".";  ///< Where the run record is written.
  std::string commit = "unknown";
};

/// A named metric with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, emitted by every workload with tracing off.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, emitted by every workload with tracing on.  A layer
/// call a workload never makes reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Everything one run reports.
class Output {
 public:
  void Set(const std::string& name, double value);
  /// Records a named output check; a failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  JsonObject& record() { return record_; }

  int64_t attempted = 0;
  int64_t failed_ops = 0;  ///< Operations that did not finish ok.

  bool correct() const { return failed_checks_ == 0; }
  /// The result line: {"correct", "attempted", "failed", "metrics"} over
  /// `specs` (missing names fail the run, except per-layer ones, which
  /// read 0 when the workload never calls that layer).
  std::string ResultLine(const std::vector<MetricSpec>& specs,
                         bool missing_is_zero);
  /// The full run record (metrics, checks, record fields) as JSON.
  std::string RecordJson() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  JsonObject checks_;
  JsonObject record_;
  int64_t failed_checks_ = 0;
};

/// A /proc/self/status field ("VmHWM:", "VmRSS:") in MiB; -1 if absent.
double ProcStatusMb(const char* field);
/// Resets VmHWM to the current RSS through /proc/self/clear_refs ("5").
bool ResetPeakRss();
/// CPU time of the calling thread, and of the whole process, in ms.  The
/// kernel leaves out time a virtual CPU spent descheduled by its host
/// (steal), which wall time includes.
double ThreadCpuMs();
double ProcessCpuMs();
/// Steal time summed over the host's CPUs since boot, in ms (/proc/stat).
double HostStealMs();
/// Sleeps, then spins, until the steady clock reaches `due_ms`.
void SleepUntil(double due_ms);

bool SameEdges(const std::vector<geattack::Edge>& a,
               const std::vector<geattack::Edge>& b);
/// 64-bit digest of a CSR matrix's structure and values (exact bits).
uint64_t CsrDigest(const geattack::CsrMatrix& m);

/// Times the single-call layer probes on `ctx` for `requests` (each its own
/// span key): view build and its nnz, the normalization-values kernel, the
/// targeted-loss backward, FGA-T on one thread, whole-graph SpMM and
/// forward, and one driver wave of pre-cancelled requests.
void ProbeLayers(const geattack::AttackContext& ctx,
                 const std::vector<geattack::AttackRequest>& requests,
                 int wave_threads, int64_t wave_size, Tracer* tracer,
                 Output* out);

/// The inspect half of the §5.1 loop, one public call at a time: per target
/// PerturbedLogits, Explain, ComputeDetection and (with ec.defend)
/// InspectAndPruneInPlace on one mutate-and-restore working graph,
/// aggregated in target order exactly as EvaluateAttack aggregates — so
/// given EvaluateAttack's own picks it reproduces its JointAttackOutcome
/// bit for bit.  Traced, every call is a span keyed by the target's index
/// and GcnRenormalizeAfterFlips is timed on the same picks.  `pruned`
/// (optional) receives each target's pruned-edge count.
geattack::JointAttackOutcome InspectSteps(
    const geattack::AttackContext& ctx, const geattack::Explainer& explainer,
    const geattack::EvalConfig& ec,
    const std::vector<geattack::PreparedTarget>& targets,
    const std::vector<std::vector<geattack::Edge>>& picks, Tracer* tracer,
    std::vector<double>* pruned = nullptr);

/// Bitwise equality of every field EvaluateAttack fills.
bool SameOutcome(const geattack::JointAttackOutcome& a,
                 const geattack::JointAttackOutcome& b);
/// The outcome's quality numbers as a JSON object.
JsonObject OutcomeJson(const geattack::JointAttackOutcome& o);

/// Fills the per-layer metrics derivable from span names alone (medians of
/// "<layer>.<call>" spans and per-layer self times).
void SetSpanMetrics(const Tracer& tracer, Output* out);

void RunProtocol(const Options& o, Tracer* tracer, Output* out);
void RunService(const Options& o, Tracer* tracer, Output* out);
void RunLive(const Options& o, Tracer* tracer, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
