/**
 * @file
 * Top-level tuners: DAC (the paper's contribution), the reimplemented
 * RFHOC baseline, the expert rule-of-thumb tuner, and the Spark
 * defaults. All expose the same interface so the evaluation benches
 * can compare them uniformly (Figures 12-14).
 */

#ifndef DAC_DAC_TUNER_H
#define DAC_DAC_TUNER_H

#include <map>

#include "conf/expert.h"
#include "dac/pipeline.h"

namespace dac::core {

/**
 * Something that can produce a configuration for a program-input pair.
 */
class Tuner
{
  public:
    virtual ~Tuner() = default;

    /** Tuner name for reports ("DAC", "RFHOC", "expert", "default"). */
    virtual std::string name() const = 0;

    /** Configuration for running `workload` at `native_size`. */
    virtual conf::Configuration configFor(
        const workloads::Workload &workload, double native_size) = 0;
};

/** Returns the Spark defaults for every program-input pair. */
class DefaultTuner : public Tuner
{
  public:
    std::string name() const override { return "default"; }
    conf::Configuration configFor(const workloads::Workload &,
                                  double) override;
};

/** Applies the Spark/Cloudera tuning-guide rules (Section 5.6). */
class ExpertTuner : public Tuner
{
  public:
    explicit ExpertTuner(const cluster::ClusterSpec &cluster);
    std::string name() const override { return "expert"; }
    conf::Configuration configFor(const workloads::Workload &,
                                  double) override;

  private:
    conf::Configuration config;
};

/**
 * Common machinery for DAC and RFHOC: train() once per workload at
 * its Table 1 training sizes, keep the TrainedModel, then search()
 * per requested dataset size (pipeline.h). Runs serially; not
 * thread-safe.
 */
class ModelBasedTuner : public Tuner
{
  public:
    ModelBasedTuner(const sparksim::SparkSimulator &sim,
                    AutoTuneOptions options, ModelKind kind,
                    bool datasize_aware);

    conf::Configuration configFor(const workloads::Workload &workload,
                                  double native_size) override;

    /** Tuning cost for a workload tuned so far (Table 3). */
    const TunerOverhead &overhead(const std::string &abbrev) const;

    /** GA trace of the most recent search (Figure 11). */
    const ga::GaResult &lastGaResult() const { return lastGa; }

    /** Cross-validated model error for a tuned workload (percent). */
    double modelError(const std::string &abbrev) const;

  private:
    /** The workload's record, trained on first use. */
    TrainedModel &ensureTrained(const workloads::Workload &workload);
    /** The record of a tuned workload; fatal if it was never tuned. */
    const TrainedModel &trainedFor(const std::string &abbrev) const;

    const sparksim::SparkSimulator *sim;
    AutoTuneOptions options;
    ModelKind kind;
    bool datasizeAware;
    std::map<std::string, TrainedModel> trained;
    ga::GaResult lastGa;
};

/** DAC: hierarchical model over 41 parameters + dsize, GA search. */
class DacTuner : public ModelBasedTuner
{
  public:
    DacTuner(const sparksim::SparkSimulator &sim,
             AutoTuneOptions options = {});
    std::string name() const override { return "DAC"; }
};

/**
 * RFHOC (Bei et al.) reimplemented for Spark: random-forest model,
 * GA search, no datasize awareness — the paper's strongest baseline.
 */
class RfhocTuner : public ModelBasedTuner
{
  public:
    RfhocTuner(const sparksim::SparkSimulator &sim,
               AutoTuneOptions options = {});
    std::string name() const override { return "RFHOC"; }
};

} // namespace dac::core

#endif // DAC_DAC_TUNER_H
