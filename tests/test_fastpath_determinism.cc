/**
 * @file
 * Determinism tests for the fast replay engine.
 *
 * Two runs with the same seed must produce byte-identical RunReport
 * artifacts once the timestamp is pinned, and the engine factory must
 * resolve every backend name.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "core/vectors.hh"
#include "sim/fastpath/engine.hh"
#include "telemetry/report.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

CacheConfig
smallLlc()
{
    CacheConfig cfg;
    cfg.name = "llc";
    cfg.sizeBytes = 64 * 1024;
    cfg.assoc = 16;
    cfg.blockBytes = 64;
    return cfg;
}

std::vector<fastpath::ReplaySpec>
coreSpecs()
{
    return {fastpath::lruSpec(),
            fastpath::lipSpec(),
            fastpath::giplrSpec(local_vectors::giplr()),
            fastpath::plruSpec(),
            fastpath::gipprSpec(local_vectors::gippr()),
            fastpath::dgipprSpec(local_vectors::dgippr2()),
            fastpath::dgipprSpec(local_vectors::dgippr4())};
}

Trace
mixedStream(uint64_t n, uint64_t seed, const CacheConfig &cfg)
{
    Rng rng(seed);
    Trace trace;
    trace.reserve(n);
    const uint64_t block = cfg.blockBytes;
    const uint64_t blocks = cfg.sets() * cfg.assoc * 4;
    for (uint64_t i = 0; i < n; ++i) {
        MemRecord rec;
        rec.instGap = 1;
        rec.addr = rng.nextBounded(blocks) * block;
        if (rng.nextBool(0.1)) {
            rec.isWrite = true;
            rec.pc = 0; // writeback
        } else {
            rec.isWrite = rng.nextBool(0.25);
            rec.pc = 0x400000 + rng.nextBounded(64) * 4;
        }
        trace.append(rec);
    }
    return trace;
}

/** Deterministic RunReport built from one fast replay. */
std::string
reportFor(const Trace &trace)
{
    const CacheConfig cfg = smallLlc();
    telemetry::RunReport report("bench", "determinism_probe");
    report.setTimestamp("2000-01-01T00:00:00Z");
    const fastpath::FastReplayEngine engine;
    telemetry::ResultTable table;
    table.title = "counters";
    table.metric = "count";
    table.columns = {"hits", "demand_misses", "evictions",
                     "writebacks"};
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        const fastpath::ReplayStats stats =
            engine.replay(spec, cfg, trace, trace.size() / 3);
        table.rows.push_back(
            {spec.name(),
             {static_cast<double>(stats.measured.hits),
              static_cast<double>(stats.measured.demandMisses),
              static_cast<double>(stats.measured.evictions),
              static_cast<double>(stats.measured.writebacks)}});
    }
    report.addTable(std::move(table));
    return report.toJson().dump(2);
}

} // namespace

TEST(FastpathDeterminism, RepeatedRunsYieldByteIdenticalReports)
{
    const Trace trace = mixedStream(60'000, 0x5eed, smallLlc());
    EXPECT_EQ(reportFor(trace), reportFor(trace));
}

TEST(FastpathDeterminism, EngineFactoryResolvesBackends)
{
    EXPECT_EQ(fastpath::ScalarReplayEngine().name(), "scalar");
    EXPECT_EQ(fastpath::FastReplayEngine().name(), "fast");
    EXPECT_EQ(fastpath::defaultReplayEngine().name(), "fast");
}

} // namespace gippr
