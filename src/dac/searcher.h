/**
 * @file
 * The searching component (Section 3.3, Figure 6): a GA walks the
 * configuration space against the trained performance model, with the
 * dataset size pinned at the target size.
 */

#ifndef DAC_DAC_SEARCHER_H
#define DAC_DAC_SEARCHER_H

#include "conf/config.h"
#include "dac/perfvector.h"
#include "ga/ga.h"
#include "ml/model.h"

namespace dac::core {

/** Outcome of one configuration search. */
struct SearchResult
{
    conf::Configuration best;
    /** Model-predicted execution time of `best`, seconds. */
    double predictedTimeSec = 0.0;
    /** GA trace (Figure 11 plots history). */
    ga::GaResult ga;
    /** Wall-clock seconds of the search (Table 3 "searching"). */
    double wallSec = 0.0;
};

/**
 * Searches a configuration space against a performance model.
 */
class Searcher
{
  public:
    /**
     * @param model        Trained performance model.
     * @param space        Configuration space to search.
     * @param includeDsize Model was trained with a dsize feature.
     */
    Searcher(const ml::Model &model, const conf::ConfigSpace &space,
             bool include_dsize);

    /**
     * Score the GA through this precompiled form of `model` instead
     * of compiling one per search() call. Must be compiled from the
     * same trained model; the caller keeps ownership and must keep it
     * alive for the searcher's lifetime. core::search() passes the
     * ensemble a TrainedModel compiled once at train time.
     */
    void setCompiled(const ml::FlatEnsemble *flat) { compiled = flat; }

    /**
     * Find the configuration minimizing predicted time at `dsize`.
     *
     * The GA scores whole generations: each genome is decoded into a
     * feature row, and the rows are scored through a compiled
     * FlatEnsemble (setCompiled(), or a per-call Model::compile() for
     * compilable models) or else through Model::predict row by row.
     * All three return the identical SearchResult.
     *
     * @param dsize_bytes Target dataset size (ignored when the model
     *                    is datasize-unaware).
     * @param params      GA settings.
     * @param seeds       Configurations to seed the population with
     *                    (the paper samples popSize vectors from S).
     */
    SearchResult search(double dsize_bytes, const ga::GaParams &params,
                        const std::vector<conf::Configuration> &seeds =
                            {}) const;

  private:
    const ml::Model *model;
    const conf::ConfigSpace *space;
    bool includeDsize;
    const ml::FlatEnsemble *compiled = nullptr;
};

} // namespace dac::core

#endif // DAC_DAC_SEARCHER_H
