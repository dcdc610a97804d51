#include "holoclean/detect/error_detector.h"

#include "holoclean/detect/violation_detector.h"

namespace holoclean {

NoisyCells DcViolationDetector::Detect(const Dataset& dataset) const {
  ViolationDetector::Options options;
  options.sim_threshold = sim_threshold_;
  ViolationDetector detector(&dataset.dirty(), &dcs_, options);
  return detector.DetectSet().noisy;
}

}  // namespace holoclean
