#include "fl/perfedavg.h"

#include <numeric>

#include "fl/parallel_round.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace fedclust::fl {

PerFedAvg::PerFedAvg(Federation& fed) : FlAlgorithm(fed) {}

void PerFedAvg::setup() { meta_ = fed_.init_params(); }

std::vector<float> PerFedAvg::maml_train(nn::Model& ws, std::size_t c,
                                         std::size_t r,
                                         const std::vector<float>& start) {
  const auto& opts = fed_.cfg().local;
  const float alpha = fed_.cfg().algo.perfedavg_alpha;
  const float beta = fed_.cfg().algo.perfedavg_beta;
  // Held for the whole adaptation: `ds` references into the client, which
  // a virtual store may otherwise evict mid-loop.
  const auto client = fed_.client(c);
  const auto& ds = client->train_data();
  util::Rng rng = fed_.train_rng(c, r);

  std::vector<float> w = start;
  std::vector<std::size_t> order(ds.size());
  std::iota(order.begin(), order.end(), 0);

  const auto batch_grad =
      [&](const std::vector<std::size_t>& batch) -> std::vector<float> {
    ws.zero_grad();
    const auto logits = ws.forward(ds.batch_images(batch), /*train=*/true);
    const auto lr = nn::softmax_cross_entropy(logits, ds.batch_labels(batch));
    ws.backward(lr.grad_logits);
    return ws.flat_grads();
  };

  for (std::size_t e = 0; e < opts.epochs; ++e) {
    rng.shuffle(order);
    // Consume the shuffled data in pairs of batches: the first drives the
    // inner adaptation step, the second the meta update.
    for (std::size_t start_idx = 0; start_idx + opts.batch_size <
                                    order.size();
         start_idx += 2 * opts.batch_size) {
      const std::size_t mid =
          std::min(order.size(), start_idx + opts.batch_size);
      const std::size_t end = std::min(order.size(), mid + opts.batch_size);
      const std::vector<std::size_t> b1(
          order.begin() + static_cast<std::ptrdiff_t>(start_idx),
          order.begin() + static_cast<std::ptrdiff_t>(mid));
      const std::vector<std::size_t> b2(
          order.begin() + static_cast<std::ptrdiff_t>(mid),
          order.begin() + static_cast<std::ptrdiff_t>(end));
      if (b2.empty()) break;

      // Inner step: w' = w - alpha * grad_b1(w).
      ws.set_flat_params(w);
      const auto g1 = batch_grad(b1);
      std::vector<float> adapted = w;
      tensor::axpy(-alpha, g1, adapted);
      // Meta step (first-order): w -= beta * grad_b2(w').
      ws.set_flat_params(adapted);
      const auto g2 = batch_grad(b2);
      tensor::axpy(-beta, g2, w);
    }
  }
  return w;
}

void PerFedAvg::round(std::size_t r) {
  const auto sampled = fed_.sample_round(r);
  const std::size_t p = fed_.model_size();

  // Serialize the meta-model once per round; clients adapt the
  // wire-decoded copy they download.
  const std::vector<float> rx_meta = fed_.through_wire(
      wire::MessageKind::kModelPull, meta_, wire::kServerSender, r);

  std::vector<std::vector<float>> updates(sampled.size());
  std::vector<double> weights(sampled.size());
  std::vector<char> delivered(sampled.size(), 1);
  ParallelRoundRunner runner(fed_);
  runner.for_each_client(sampled, [&](std::size_t idx, std::size_t c,
                                      nn::Model& ws) {
    runner.bill_download(r, c, p);
    runner.journal_train(
        r, c, [&] { updates[idx] = maml_train(ws, c, r, rx_meta); });
    weights[idx] = static_cast<double>(fed_.client(c)->n_train());
    delivered[idx] = fed_.deliver_update(c, r, updates[idx], p) ? 1 : 0;
  });
  std::vector<std::pair<const std::vector<float>*, double>> entries;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (delivered[i]) entries.emplace_back(&updates[i], weights[i]);
  }
  if (entries.empty()) {
    OBS_COUNTER_ADD("fault.empty_rounds", 1);
    return;  // meta-model carries forward unchanged
  }
  meta_ = weighted_average(entries);
}

double PerFedAvg::evaluate_all() {
  // Personalize-then-evaluate: a few plain SGD epochs from the meta-model.
  LocalTrainOptions fine = fed_.cfg().local;
  fine.epochs = fed_.cfg().algo.perfedavg_eval_epochs;
  fine.lr = fed_.cfg().algo.perfedavg_alpha;
  const auto ids = fed_.eval_ids();
  std::vector<double> accs(ids.size());
  ParallelRoundRunner runner(fed_);
  runner.for_each_index(ids.size(), [&](std::size_t idx, nn::Model& ws) {
    const std::size_t i = ids[idx];
    ws.set_flat_params(meta_);
    const auto client = fed_.client(i);
    client->train(ws, fine, fed_.train_rng(i, 0xEdA1));
    accs[idx] = client->evaluate(ws);
    runner.journal_eval(i, accs[idx]);
  });
  double sum = 0.0;
  for (const double a : accs) sum += a;
  return sum / static_cast<double>(accs.size());
}

void PerFedAvg::save_state(util::BinaryWriter& w) const {
  w.write_f32_vec(meta_);
}

void PerFedAvg::load_state(util::BinaryReader& r) {
  meta_ = r.read_f32_vec();
}

}  // namespace fedclust::fl
