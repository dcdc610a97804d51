#include "common.h"

#include <cstdio>
#include <cstdlib>

#include "holoclean/data/flights.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/data/physicians.h"

namespace holoclean::bench {

double BenchScale() {
  const char* env = std::getenv("HOLOCLEAN_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

GeneratedData MakeDataset(const std::string& name) {
  double scale = BenchScale();
  if (name == "hospital") {
    HospitalOptions options;
    options.num_rows = static_cast<size_t>(1000 * scale);
    return MakeHospital(options);
  }
  if (name == "flights") {
    FlightsOptions options;
    options.num_rows = static_cast<size_t>(2377 * scale);
    return MakeFlights(options);
  }
  if (name == "food") {
    FoodOptions options;
    options.num_rows = static_cast<size_t>(4000 * scale);
    return MakeFood(options);
  }
  if (name == "physicians") {
    PhysiciansOptions options;
    options.num_rows = static_cast<size_t>(8000 * scale);
    return MakePhysicians(options);
  }
  std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
  std::abort();
}

double PaperTau(const std::string& name) {
  if (name == "hospital") return 0.5;
  if (name == "flights") return 0.3;
  if (name == "food") return 0.5;
  return 0.7;  // physicians
}

HoloCleanConfig PaperConfig(const std::string& name) {
  HoloCleanConfig config;
  config.tau = PaperTau(name);
  config.dc_mode = DcMode::kFeatures;
  config.partitioning = false;
  return config;
}

RunOutcome RunPipeline(GeneratedData* data, const HoloCleanConfig& config,
                       bool use_dicts) {
  SessionOptions options;
  options.config = config;
  bool with_dicts = use_dicts && !data->dicts.empty();
  auto report = CleanOnce(
      CleaningInputs::Borrowed(&data->dataset, &data->dcs,
                               with_dicts ? &data->dicts : nullptr,
                               with_dicts ? &data->mds : nullptr),
      options);
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline failed on %s: %s\n", data->name.c_str(),
                 report.status().ToString().c_str());
    std::abort();
  }
  RunOutcome outcome;
  outcome.eval = EvaluateRepairs(data->dataset, report.value().repairs);
  outcome.stats = report.value().stats;
  outcome.repairs = std::move(report.value().repairs);
  return outcome;
}

bool SameRepairs(const std::vector<Repair>& a, const std::vector<Repair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].cell == b[i].cell) || a[i].old_value != b[i].old_value ||
        a[i].new_value != b[i].new_value ||
        a[i].probability != b[i].probability) {
      return false;
    }
  }
  return true;
}

void PrintRule(const std::vector<int>& widths) {
  for (int w : widths) {
    std::printf("+");
    for (int i = 0; i < w + 2; ++i) std::printf("-");
  }
  std::printf("+\n");
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("| %-*s ", widths[i], cells[i].c_str());
  }
  std::printf("|\n");
}

std::string Fmt(double v, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

std::string BenchJsonPath() {
  const char* env = std::getenv("HOLOCLEAN_BENCH_JSON");
  return env == nullptr ? std::string() : std::string(env);
}

void AppendBenchMetric(const std::string& bench, const std::string& metric,
                       double value) {
  std::string path = BenchJsonPath();
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  // Metric names are plain identifiers, so no JSON escaping is needed.
  std::fprintf(f, "{\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.17g}\n",
               bench.c_str(), metric.c_str(), value);
  std::fclose(f);
}

const std::vector<std::string>& AllDatasetNames() {
  static const std::vector<std::string> kNames = {"hospital", "flights",
                                                  "food", "physicians"};
  return kNames;
}

}  // namespace holoclean::bench
