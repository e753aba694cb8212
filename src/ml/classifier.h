// SmallCnn: the victim model of the backdoor experiment. A LeNet-style
// network over 32x32x3 inputs (the paper's Table 1 lists 32x32 as the
// LeNet-5 geometry):
//
//     conv 3->8 (3x3) - ReLU - maxpool2     32 -> 30 -> 15
//     conv 8->16 (3x3) - ReLU - maxpool2    15 -> 13 -> 6
//     flatten (16*6*6 = 576) - dense -> classes
//
// Trained with plain SGD, batch size 1. Deterministic given the seed.
#pragma once

#include <vector>

#include "data/rng.h"
#include "imaging/image.h"
#include "imaging/kernels.h"
#include "ml/layers.h"

namespace decam::ml {

struct TrainingSample {
  Image image;  // any geometry; the model downscales to its input side
  int label = 0;
};

struct TrainConfig {
  int epochs = 10;
  float learning_rate = 0.01f;
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
};

class SmallCnn {
 public:
  /// `input_side` is the CNN geometry (e.g. 32); inputs of other sizes are
  /// downscaled with `pipeline_algo` first — the pre-processing step the
  /// image-scaling attack targets.
  SmallCnn(int classes, int input_side, ScaleAlgo pipeline_algo,
           std::uint64_t seed);

  /// Pre-processing + forward pass; returns class probabilities.
  std::vector<float> predict(const Image& input);

  /// argmax of predict().
  int classify(const Image& input);

  /// SGD training on (possibly poisoned) data. Returns final-epoch mean
  /// training loss.
  double train(const std::vector<TrainingSample>& samples,
               const TrainConfig& config);

  /// Fraction of samples classified correctly.
  double accuracy(const std::vector<TrainingSample>& samples);

  int classes() const { return classes_; }
  int input_side() const { return input_side_; }

 private:
  Tensor preprocess(const Image& input);
  std::vector<float> forward(const Tensor& input);
  void backward(const std::vector<float>& grad_logits);
  void apply_gradients(float learning_rate);

  int classes_;
  int input_side_;
  ScaleAlgo pipeline_algo_;
  data::Rng init_rng_;  // declared before the layers so they can draw from it
  int flat_size_ = 0;   // set during head_'s initialisation (see .cpp)
  Conv2D conv1_;
  ReLU relu1_;
  MaxPool2 pool1_;
  Conv2D conv2_;
  ReLU relu2_;
  MaxPool2 pool2_;
  Dense head_;
  Tensor last_pool2_;  // shape memo for unflattening the gradient
};

}  // namespace decam::ml
