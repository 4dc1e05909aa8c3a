#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "common/json.hpp"

namespace wallbench {

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto at = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  q.q1 = at(0.25);
  q.median = at(0.5);
  q.q3 = at(0.75);
  return q;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"offline_s", "s"},
      {"online_s", "s"},
      {"gates_per_s", "1/s"},
      {"sessions_per_s", "1/s"},
      {"online_bytes_per_gate", "B"},
      {"offline_bytes_per_gate", "B"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

namespace {

std::vector<MetricSpec> build_per_layer_specs() {
  std::vector<MetricSpec> s = {
      {"ct_math.powm_sec.calls.offline", "count"},
      {"ct_math.powm_sec.calls.online", "count"},
      {"ct_math.powm_pub.calls.offline", "count"},
      {"ct_math.powm_pub.calls.online", "count"},
      {"ct_math.mod_inverse.calls", "count"},
  };
  for (const char* kind : {"powm_sec", "powm_pub"}) {
    for (unsigned c : kPowmClasses) {
      s.push_back({std::string("ct_math.") + kind + ".us.s" + std::to_string(c), "us"});
    }
  }
  const std::vector<MetricSpec> rest = {
      {"paillier.enc.calls", "count"},
      {"paillier.enc_secret.calls", "count"},
      {"paillier.dec.calls", "count"},
      {"paillier.eval.calls", "count"},
      {"paillier.tpdec.calls", "count"},
      {"paillier.extract_root.calls", "count"},
      {"paillier.enc.us", "us"},
      {"paillier.enc_secret.us", "us"},
      {"paillier.dec.us", "us"},
      {"paillier.eval.us", "us"},
      {"paillier.tpdec.us", "us"},
      {"paillier.tdec.us", "us"},
      {"paillier.tkres.us", "us"},
      {"paillier.verify_reshare.us", "us"},
      {"paillier.next_epoch_pk.us", "us"},
      {"nizk.prove.calls", "count"},
      {"nizk.verify.calls", "count"},
      {"nizk.link_prove.us", "us"},
      {"nizk.link_verify.us", "us"},
      {"nizk.pdec_prove.us", "us"},
      {"nizk.pdec_verify.us", "us"},
      {"nizk.root_prove.us", "us"},
      {"nizk.root_verify.us", "us"},
      {"nizk.plaintext_prove.us", "us"},
      {"nizk.plaintext_verify.us", "us"},
      {"nizk.mult_prove.us", "us"},
      {"nizk.mult_verify.us", "us"},
      {"sharing.pack.calls", "count"},
      {"field.mul.calls", "count"},
      {"sharing.packed_share.us", "us"},
      {"sharing.packed_reconstruct.us", "us"},
      {"field.lagrange_coeffs.us", "us"},
      {"wire.encode.calls", "count"},
      {"wire.decode.calls", "count"},
      {"wire.mask_batch_roundtrip.us", "us"},
      {"yoso.posts.offline", "count"},
      {"yoso.posts.online", "count"},
      {"yoso.bytes.setup", "B"},
      {"yoso.bytes.offline", "B"},
      {"yoso.bytes.online", "B"},
      {"net.offline.virtual_s", "virtual_s"},
      {"net.online.virtual_s", "virtual_s"},
      {"net.rounds.online", "count"},
      {"net.decode_failures", "count"},
      {"mpc.epochs", "count"},
      {"mpc.committees", "count"},
      {"explained.offline", "1"},
      {"explained.online", "1"},
      {"service.pool.hit_rate", "1"},
      {"service.pool.useful_ratio", "1"},
      {"service.virtual_p50_s", "virtual_s"},
      {"service.virtual_p99_s", "virtual_s"},
      {"service.rejected", "count"},
      {"service.failed", "count"},
      {"service.resubmits", "count"},
      {"proc.cpu_s", "s"},
      {"trace.overhead", "1"},
  };
  s.insert(s.end(), rest.begin(), rest.end());
  return s;
}

bool in_set(char c, std::string_view extra) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         extra.find(c) != std::string_view::npos;
}

const MetricSpec* find_spec(const std::vector<MetricSpec>& specs, std::string_view name) {
  for (const auto& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = build_per_layer_specs();
  return specs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !in_set(name[0], "")) return false;
  return std::all_of(name.begin(), name.end(), [](char c) { return in_set(c, "_.-"); });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) { return in_set(c, "_/%.-"); });
}

void MetricValues::set(const std::vector<MetricSpec>& specs, const std::string& name,
                       double value) {
  if (find_spec(specs, name) == nullptr) {
    throw std::logic_error("metric outside the catalogue: " + name);
  }
  if (!std::isfinite(value)) throw std::logic_error("metric not finite: " + name);
  values_[name] = value;
}

std::string MetricValues::json(const std::vector<MetricSpec>& specs) const {
  yoso::json::Writer w;
  w.begin_object();
  for (const auto& s : specs) {
    const auto it = values_.find(s.name);
    if (it == values_.end()) throw std::logic_error("metric not set: " + s.name);
    w.key(s.name).begin_object();
    w.field("value", it->second);
    w.field("unit", s.unit);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace wallbench
