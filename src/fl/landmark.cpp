#include "fl/landmark.h"

#include <numeric>
#include <string>

#include "util/rng.h"

namespace fedclust::fl {

std::size_t effective_landmarks(std::size_t n_clients,
                                std::size_t landmarks) {
  return (landmarks == 0 || landmarks >= n_clients) ? 0 : landmarks;
}

std::vector<std::size_t> sample_landmarks(std::uint64_t seed,
                                          std::size_t n_clients,
                                          std::size_t landmarks) {
  const std::size_t L = std::min(landmarks, n_clients);
  auto ids = util::Rng(seed).split(kLandmarkStream)
                 .sample_without_replacement(n_clients, L);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::size_t> cluster_landmarks(std::uint64_t seed,
                                           std::size_t n_clients,
                                           std::size_t landmarks) {
  const std::size_t L = effective_landmarks(n_clients, landmarks);
  if (L > 0) return sample_landmarks(seed, n_clients, L);
  std::vector<std::size_t> everyone(n_clients);
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  return everyone;
}

std::vector<std::vector<std::size_t>> landmark_assign_batches(
    std::size_t n_clients, const std::vector<std::size_t>& landmark_ids,
    std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  std::vector<std::vector<std::size_t>> batches;
  std::vector<std::size_t> current;
  current.reserve(batch_size);
  // landmark_ids is sorted ascending, so one cursor marks membership.
  std::size_t cursor = 0;
  for (std::size_t c = 0; c < n_clients; ++c) {
    if (cursor < landmark_ids.size() && landmark_ids[cursor] == c) {
      ++cursor;
      continue;
    }
    current.push_back(c);
    if (current.size() == batch_size) {
      batches.push_back(std::move(current));
      current = {};
      current.reserve(batch_size);
    }
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

std::size_t nearest_landmark(const std::vector<float>& f,
                             const tensor::PackedRows& landmarks) {
  if (f.size() != landmarks.dim()) {
    throw std::invalid_argument("nearest_landmark: size mismatch");
  }
  // One distance per landmark, reused across this thread's queries.
  thread_local std::vector<float> dist;
  dist.resize(landmarks.size());
  landmarks.l2_distances(f.data(), 0, dist.data());
  return first_nearest(dist.size(), [&](std::size_t j) { return dist[j]; });
}

void validate_landmark_ids(const std::vector<std::size_t>& ids,
                           std::size_t n_clients, const char* what) {
  if (ids.empty()) return;  // exact mode
  if (ids.size() >= n_clients) {
    throw std::runtime_error(std::string(what) +
                             ": corrupt landmark ids (count >= population)");
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= n_clients || (i > 0 && ids[i] <= ids[i - 1])) {
      throw std::runtime_error(
          std::string(what) +
          ": corrupt landmark ids (out of range or unsorted)");
    }
  }
}

}  // namespace fedclust::fl
