#include "fl/flis.h"

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "data/synthetic.h"
#include "fl/cluster_common.h"
#include "fl/parallel_round.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace fedclust::fl {

Flis::Flis(Federation& fed, std::size_t proxy_per_class, std::size_t k)
    : FlAlgorithm(fed), proxy_per_class_(proxy_per_class), k_(k) {}

void Flis::setup() {
  const auto& spec = fed_.cfg().data_spec;
  const std::size_t n = fed_.n_clients();

  // Server-side proxy data: a balanced IID sample from the same generator
  // (the data-availability assumption the FedClust paper criticizes).
  const data::SyntheticGenerator gen(spec, fed_.cfg().seed);
  data::Dataset proxy(spec.channels, spec.hw, spec.num_classes);
  util::Rng rng = util::Rng(fed_.cfg().seed).split(0xF115);
  for (std::size_t c = 0; c < spec.num_classes; ++c) {
    for (std::size_t i = 0; i < proxy_per_class_; ++i) {
      proxy.add(gen.sample(static_cast<std::int64_t>(c), rng),
                static_cast<std::int64_t>(c));
    }
  }
  std::vector<std::size_t> all(proxy.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto proxy_images = proxy.batch_images(all);

  // Each client warms up from θ0 and reports its softmax profile over the
  // proxy set; the warmups run client-parallel like every other all-client
  // sweep.
  const std::size_t p = fed_.model_size();
  // θ0 is serialized once; every client warms up from the wire-decoded
  // copy, and each profile travels back through a checksummed envelope.
  const std::vector<float> rx_init = fed_.through_wire(
      wire::MessageKind::kModelPull, fed_.init_params(), wire::kServerSender,
      0xF1150000);
  std::vector<std::vector<float>> profiles(n);
  OBS_SPAN("flis.warmup");
  ParallelRoundRunner runner(fed_);
  runner.for_each_index(n, [&](std::size_t c, nn::Model& ws) {
    OBS_SPAN_ARG("client.warmup", c);
    fed_.bill_download(p);
    ws.set_flat_params(rx_init);
    fed_.client(c)->train(ws, fed_.cfg().local,
                          fed_.train_rng(c, 0xF1150000));
    auto logits = ws.forward(proxy_images);
    tensor::softmax_rows_(logits);
    profiles[c] = fed_.upload_payload(wire::MessageKind::kWarmupWeights,
                                      logits.vec(), c, 0xF1150000);
  });
  for (std::size_t c = 0; c < n; ++c) {
    require_finite_warmup("FLIS", c, profiles[c]);
  }

  const auto dendro = clustering::agglomerative(
      clustering::cosine_distance_matrix(profiles),
      clustering::Linkage::kAverage);
  assignment_ = clustering::cut(dendro, k_, /*threshold=*/-1.0f).labels;
  cluster_models_.assign(clustering::num_clusters(assignment_),
                         fed_.init_params());
  FC_LOG_DEBUG << "FLIS formed " << cluster_models_.size() << " clusters";
}

void Flis::round(std::size_t r) {
  cluster_fedavg_round(fed_, r, assignment_, cluster_models_);
}

double Flis::evaluate_all() {
  return cluster_average_accuracy(fed_, assignment_, cluster_models_);
}

void Flis::save_state(util::BinaryWriter& w) const {
  write_index_vec(w, assignment_);
  write_nested_f32(w, cluster_models_);
}

void Flis::load_state(util::BinaryReader& r) {
  assignment_ = read_index_vec(r);
  cluster_models_ = read_nested_f32(r);
}

}  // namespace fedclust::fl
