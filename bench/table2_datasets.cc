// Reproduces Table 2 of the paper: parameters of the evaluation datasets —
// tuples, attributes, detected DC violations, noisy cells, and number of
// integrity constraints. (Row counts are scaled; set HOLOCLEAN_BENCH_SCALE
// to approach the paper's sizes.)

#include <cstdio>

#include "common.h"
#include "holoclean/detect/violation_detector.h"

using namespace holoclean;        // NOLINT
using namespace holoclean::bench; // NOLINT

int main() {
  std::printf("Table 2: Parameters of the data used for evaluation\n");
  std::printf("(paper: Hospital 1000/19/6604/6140/9, Flights 2377/6/84413/"
              "11180/4,\n Food 339908/17/39322/41254/7, Physicians "
              "2071849/18/5427322/174557/9)\n\n");
  std::vector<int> widths = {11, 9, 11, 11, 12, 5};
  PrintRule(widths);
  PrintRow({"Dataset", "Tuples", "Attributes", "Violations", "Noisy cells",
            "ICs"},
           widths);
  PrintRule(widths);
  for (const std::string& name : AllDatasetNames()) {
    GeneratedData data = MakeDataset(name);
    DetectArtifacts detected =
        ViolationDetector(&data.dataset.dirty(), &data.dcs).DetectSet();
    PrintRow({name, std::to_string(data.dataset.dirty().num_rows()),
              std::to_string(data.dataset.dirty().schema().num_attrs()),
              std::to_string(detected.violations.size()),
              std::to_string(detected.noisy.size()),
              std::to_string(data.dcs.size()) + " DCs"},
             widths);
  }
  PrintRule(widths);
  return 0;
}
