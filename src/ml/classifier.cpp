#include "ml/classifier.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "imaging/scale.h"

namespace decam::ml {
namespace {

int conv_pool_output(int side, int kernel) {
  return (side - kernel + 1) / 2;
}

}  // namespace

SmallCnn::SmallCnn(int classes, int input_side, ScaleAlgo pipeline_algo,
                   std::uint64_t seed)
    : classes_(classes),
      input_side_(input_side),
      pipeline_algo_(pipeline_algo),
      init_rng_(seed),
      conv1_(3, 8, 3, init_rng_),
      conv2_(8, 16, 3, init_rng_),
      head_([&] {
        DECAM_REQUIRE(classes >= 2, "need at least two classes");
        DECAM_REQUIRE(input_side >= 12,
                      "input side too small for two conv blocks");
        const int after1 = conv_pool_output(input_side, 3);
        const int after2 = conv_pool_output(after1, 3);
        DECAM_REQUIRE(after2 >= 1, "input side too small");
        flat_size_ = 16 * after2 * after2;
        return Dense(flat_size_, classes, init_rng_);
      }()) {}

Tensor SmallCnn::preprocess(const Image& input) {
  const Image gray_safe =
      input.channels() == 3
          ? input
          : [&] {
              // Replicate grayscale input into RGB so the model geometry
              // stays fixed.
              Image rgb(input.width(), input.height(), 3);
              for (int c = 0; c < 3; ++c) {
                auto dst = rgb.plane(c);
                auto src = input.plane(0);
                std::copy(src.begin(), src.end(), dst.begin());
              }
              return rgb;
            }();
  if (input.width() == input_side_ && input.height() == input_side_) {
    return Tensor::from_image(gray_safe);
  }
  Image small = resize(gray_safe, input_side_, input_side_, pipeline_algo_);
  small.clamp();
  return Tensor::from_image(small);
}

std::vector<float> SmallCnn::forward(const Tensor& input) {
  const Tensor a1 = pool1_.forward(relu1_.forward(conv1_.forward(input)));
  last_pool2_ = pool2_.forward(relu2_.forward(conv2_.forward(a1)));
  DECAM_ASSERT(static_cast<int>(last_pool2_.size()) == flat_size_);
  return head_.forward(last_pool2_.flat());
}

void SmallCnn::backward(const std::vector<float>& grad_logits) {
  const std::vector<float> grad_flat = head_.backward(grad_logits);
  Tensor grad_pool2(last_pool2_.channels(), last_pool2_.height(),
                    last_pool2_.width());
  grad_pool2.flat() = grad_flat;
  const Tensor g2 = conv2_.backward(relu2_.backward(pool2_.backward(grad_pool2)));
  conv1_.backward(relu1_.backward(pool1_.backward(g2)));
}

void SmallCnn::apply_gradients(float learning_rate) {
  conv1_.apply_gradients(learning_rate);
  conv2_.apply_gradients(learning_rate);
  head_.apply_gradients(learning_rate);
}

std::vector<float> SmallCnn::predict(const Image& input) {
  return softmax(forward(preprocess(input)));
}

int SmallCnn::classify(const Image& input) {
  const std::vector<float> probs = predict(input);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double SmallCnn::train(const std::vector<TrainingSample>& samples,
                       const TrainConfig& config) {
  DECAM_REQUIRE(!samples.empty(), "training set is empty");
  DECAM_REQUIRE(config.epochs >= 1 && config.learning_rate > 0.0f,
                "bad training configuration");
  // Pre-process once: the scaling attack acts here, before training.
  std::vector<Tensor> inputs;
  inputs.reserve(samples.size());
  for (const TrainingSample& sample : samples) {
    DECAM_REQUIRE(sample.label >= 0 && sample.label < classes_,
                  "label out of range");
    inputs.push_back(preprocess(sample.image));
  }
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  data::Rng shuffle_rng(config.shuffle_seed);
  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(
          shuffle_rng.next_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    epoch_loss = 0.0;
    for (const std::size_t idx : order) {
      const std::vector<float> logits = forward(inputs[idx]);
      const LossResult loss =
          softmax_cross_entropy(logits, samples[idx].label);
      epoch_loss += loss.loss;
      backward(loss.grad_logits);
      apply_gradients(config.learning_rate);
    }
    epoch_loss /= static_cast<double>(samples.size());
    if (config.verbose) {
      std::fprintf(stderr, "[cnn] epoch %d/%d loss %.4f\n", epoch + 1,
                   config.epochs, epoch_loss);
    }
  }
  return epoch_loss;
}

double SmallCnn::accuracy(const std::vector<TrainingSample>& samples) {
  DECAM_REQUIRE(!samples.empty(), "empty evaluation set");
  int correct = 0;
  for (const TrainingSample& sample : samples) {
    if (classify(sample.image) == sample.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(samples.size());
}

}  // namespace decam::ml
