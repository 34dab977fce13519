/**
 * @file
 * Replay engines: scalar reference and packed fast backend.
 *
 * A ReplayEngine replays one LLC trace under one ReplaySpec and
 * returns ReplayStats.  Two implementations exist:
 *
 *  - ScalarReplayEngine drives the production SetAssocCache +
 *    ReplacementPolicy objects (the pre-existing simulator) and is
 *    the semantic reference.
 *  - FastReplayEngine drives one SoaCacheModel over the trace in
 *    order, so a DGIPPR duel sees leader updates and follower reads
 *    interleaved exactly as the scalar engine does.  replayMany()
 *    streams the trace once for a whole batch of specs.  Parallelism
 *    comes from the callers, which run many (trace, spec) replays at
 *    once.
 *
 * Backend selection: consumers default to defaultReplayEngine(),
 * which honours GIPPR_REPLAY_BACKEND (fast | scalar, default fast).
 */

#ifndef GIPPR_SIM_FASTPATH_ENGINE_HH_
#define GIPPR_SIM_FASTPATH_ENGINE_HH_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/fastpath/replay_spec.hh"
#include "trace/trace_io.hh"

namespace gippr::fastpath
{

/**
 * Batched chunk kernels FastReplayEngine::replayMany can dispatch for
 * a (genome-group, set-range) pass.  Widths nest: Batch32 pairs two
 * genomes per AVX2 signature scan and finishes each through the
 * 16-way branch-free tail, Batch16 is the BMI2 single-genome kernel,
 * Scalar is the portable per-way loop.  All three are bit-identical.
 */
enum class ReplayKernel : uint8_t
{
    Scalar = 0,
    Batch16 = 1,
    Batch32 = 2,
};

/** Kernel name as spelled by GIPPR_REPLAY_KERNEL ("scalar", ...). */
const char *replayKernelName(ReplayKernel kernel);

/** Parse "scalar" | "batch16" | "batch32"; throws on other input. */
ReplayKernel parseReplayKernel(const std::string &name);

/** Widest kernel this build + CPU can actually run. */
ReplayKernel widestSupportedReplayKernel();

/**
 * Kernel the batched replay path dispatches right now: the requested
 * width (GIPPR_REPLAY_KERNEL at first use, or the latest
 * setReplayKernel() call) clamped to widestSupportedReplayKernel().
 * Narrower requests are honoured exactly — that is what makes every
 * width independently testable on one host.
 */
ReplayKernel activeReplayKernel();

/**
 * Request a dispatch width for subsequent batched replays (benches
 * and tests switch kernels in-process); returns the clamped width
 * that will actually run.
 */
ReplayKernel setReplayKernel(ReplayKernel kernel);

/** Replays traces under value-described policies. */
class ReplayEngine
{
  public:
    virtual ~ReplayEngine() = default;

    /**
     * Replay @p trace against a cache of @p config geometry running
     * @p spec; records with index >= @p warmup are measured (the
     * replayTrace convention).
     */
    virtual ReplayStats replay(const ReplaySpec &spec,
                               const CacheConfig &config,
                               const TraceSource &trace,
                               size_t warmup) const = 0;

    /**
     * Replay @p trace once per spec in @p specs and return stats
     * index-aligned with the input.  Semantically identical to
     * calling replay() per spec (and that is the default
     * implementation); backends may amortize the shared per-record
     * work — trace fetch, set/tag decode — across the batch.
     */
    virtual std::vector<ReplayStats>
    replayMany(std::span<const ReplaySpec> specs,
               const CacheConfig &config, const TraceSource &trace,
               size_t warmup) const;

    /** Backend name ("scalar" or "fast"). */
    virtual std::string name() const = 0;
};

/** Reference backend over SetAssocCache + policy objects. */
class ScalarReplayEngine : public ReplayEngine
{
  public:
    ReplayStats replay(const ReplaySpec &spec, const CacheConfig &config,
                       const TraceSource &trace,
                       size_t warmup) const override;
    std::string name() const override { return "scalar"; }
};

/** Packed structure-of-arrays backend. */
class FastReplayEngine : public ReplayEngine
{
  public:
    ReplayStats replay(const ReplaySpec &spec, const CacheConfig &config,
                       const TraceSource &trace,
                       size_t warmup) const override;

    /**
     * Batched kernel: all supported specs stream the trace ONCE in
     * genome-major order — each chunk of records is decoded a single
     * time (set index, tag, access type) and then applied to every
     * spec's packed model back to back, so the models' tag/signature
     * rows and PLRU words stay hot while the shared decode work is
     * paid once per generation instead of once per genome.
     * Unsupported specs fall back to scalar per spec; results are
     * bit-identical to per-spec replay() for any batch composition.
     */
    std::vector<ReplayStats>
    replayMany(std::span<const ReplaySpec> specs,
               const CacheConfig &config, const TraceSource &trace,
               size_t warmup) const override;

    std::string name() const override { return "fast"; }

    /**
     * True when the fast path covers @p spec at @p config; otherwise
     * replay() silently falls back to the scalar reference.
     */
    static bool supports(const ReplaySpec &spec,
                         const CacheConfig &config);

  private:
    ScalarReplayEngine fallback_;
};

/** Build an engine by name: "scalar" or "fast".  Throws on unknown
 *  names. */
std::unique_ptr<ReplayEngine> makeReplayEngine(const std::string &backend);

/**
 * The process-wide default engine, resolved once from
 * GIPPR_REPLAY_BACKEND (default "fast").
 */
const ReplayEngine &defaultReplayEngine();

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_ENGINE_HH_
