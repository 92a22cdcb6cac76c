// The study registry behind `leosim_cli study <name> [flags]`: one
// explicit table of the paper's figures, the extensions and the
// ablations. Each entry's run function reads the parsed flags
// (flags.hpp), prints its tables to stdout and returns the exit code;
// `leosim_cli` applies and writes the observability flags around it.
//
// The table is plain data referencing each run function, not
// self-registration from static initializers: a linker drops the
// unreferenced objects of a static library, and the entries with them.
#pragma once

#include <span>
#include <string_view>

#include "flags.hpp"

namespace leosim::cli {

struct Study {
  const char* name;
  const char* summary;
  int (*run)(const StudyConfig& config);
  // Upper bound on --pairs, applied before `run` (0: none), for studies
  // whose per-pair cost would make the default matrix slow.
  int max_pairs = 0;
  // Flag defaults, when they differ from StudyConfig's paper-scaled ones.
  StudyConfig (*defaults)() = nullptr;
};

// Every registered study, in the order `leosim_cli studies` lists them.
std::span<const Study> Studies();

// The study named `name`, or nullptr.
const Study* FindStudy(std::string_view name);

// figure_studies.cpp
StudyConfig LatencyDefaults();
int RunLatency(const StudyConfig& config);
int RunFig2Latency(const StudyConfig& config);
int RunFig3PathChurn(const StudyConfig& config);
int RunFig4Throughput(const StudyConfig& config);
int RunFig5IslCapacity(const StudyConfig& config);
int RunFig6Attenuation(const StudyConfig& config);
int RunFig8DelhiSydney(const StudyConfig& config);
int RunFig9GsoArc(const StudyConfig& config);
int RunFig10Multishell(const StudyConfig& config);
int RunFig11FiberAugmentation(const StudyConfig& config);

// extension_studies.cpp
int RunExtCoverage(const StudyConfig& config);
int RunExtFailures(const StudyConfig& config);
int RunExtFlowCompletion(const StudyConfig& config);
int RunExtGravityMatrix(const StudyConfig& config);
int RunExtGsoNetwork(const StudyConfig& config);
int RunExtHandover(const StudyConfig& config);
int RunExtRouteChurn(const StudyConfig& config);
int RunExtThroughputStability(const StudyConfig& config);
int RunExtWeatherOutage(const StudyConfig& config);
int RunExtWeightedDemand(const StudyConfig& config);
int RunAblationBeams(const StudyConfig& config);
int RunAblationKaband(const StudyConfig& config);
int RunAblationRouting(const StudyConfig& config);
int RunAblationUpdown(const StudyConfig& config);

}  // namespace leosim::cli
