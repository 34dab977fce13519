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
 * Consumers default to defaultReplayEngine(), the fast backend;
 * tests and reference checks construct ScalarReplayEngine directly.
 */

#ifndef GIPPR_SIM_FASTPATH_ENGINE_HH_
#define GIPPR_SIM_FASTPATH_ENGINE_HH_

#include <span>
#include <string>
#include <vector>

#include "sim/fastpath/replay_spec.hh"
#include "trace/trace_io.hh"

namespace gippr::fastpath
{

/**
 * Batched chunk kernels FastReplayEngine::replayMany can dispatch.
 * Batch32 pairs two genomes per AVX2 signature scan and finishes each
 * through a 16-way branch-free tail; it runs groups of >= 2 models at
 * 16 ways.  Scalar is the portable per-way loop that runs everything
 * else.  Both are bit-identical to per-spec replay().
 */
enum class ReplayKernel : uint8_t
{
    Scalar = 0,
    Batch32 = 1,
};

/** Kernel name as reported in run configs ("scalar" or "batch32"). */
const char *replayKernelName(ReplayKernel kernel);

/**
 * Widest kernel this build and CPU can run; batched replay dispatches
 * it wherever its geometry and group size apply.
 */
ReplayKernel activeReplayKernel();

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

/** The process-wide default engine (a FastReplayEngine). */
const ReplayEngine &defaultReplayEngine();

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_ENGINE_HH_
