// Layer pass: every public layer function the protocol's cost funnels
// through, timed at the workload's own (bits, s, n, t, k) with keys of the
// workload's own exponent classes.  Each function is checked once for a
// correct result before it is timed.
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "common/ct_math.hpp"
#include "crypto/rand.hpp"
#include "field/zn_ring.hpp"
#include "nizk/link_proof.hpp"
#include "nizk/mult_proof.hpp"
#include "nizk/pdec_proof.hpp"
#include "nizk/plaintext_proof.hpp"
#include "nizk/root_proof.hpp"
#include "paillier/threshold.hpp"
#include "sharing/packed.hpp"
#include "wire/codec.hpp"

namespace wallbench {

using namespace yoso;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kRepeats = 11;
constexpr double kMinRepeatSeconds = 2e-3;  // batch fast calls up to this per repeat

// Results flow into a volatile sink so no timed call can be elided.
volatile std::size_t g_sink = 0;
void keep(const mpz_class& z) { g_sink = g_sink + mpz_size(z.get_mpz_t()); }
void keep(bool b) { g_sink = g_sink + (b ? 1 : 0); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median and quartiles of per-call microseconds over kRepeats repeats,
// after one warm-up call.
template <class F>
LayerRow time_calls(std::string metric, F&& call) {
  call();
  auto t0 = Clock::now();
  call();
  const double one = std::max(seconds_since(t0), 1e-9);
  const auto batch =
      one >= kMinRepeatSeconds ? std::size_t{1}
                               : static_cast<std::size_t>(std::ceil(kMinRepeatSeconds / one));
  std::vector<double> us;
  for (unsigned r = 0; r < kRepeats; ++r) {
    t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(batch));
  }
  return {std::move(metric), quartiles(std::move(us)), batch};
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("layer pass: wrong result from ") + what);
}

}  // namespace

std::vector<LayerRow> run_layer_pass(const ProtocolParams& p, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 3));
  std::vector<LayerRow> rows;

  // Keys of the workload's classes: the threshold key, an online role key,
  // a KFF key (root proofs) and a plain s-class key (dec, powm moduli).
  const ThresholdKeys tk = tkgen(p.paillier_bits, p.s, p.n, p.t, rng);
  const ThresholdPK& tpk = tk.tpk;
  const PaillierPK& pk = tpk.pk;
  const PaillierSK role =
      paillier_keygen(p.paillier_bits, p.exponent_for(p.role_plain_bits()), rng, false);
  const PaillierSK kff =
      paillier_keygen(p.paillier_bits, p.exponent_for(p.kff_plain_bits()), rng, false);
  const PaillierSK plain = paillier_keygen(p.paillier_bits, p.s, rng, false);

  // ct_math, per exponent class s: modulus N^{s+1}, exponent < N^s (the
  // shape of the r^{N^s} and (1+N)^m legs of an s-class encryption).
  for (const bool secret : {true, false}) {
    for (const unsigned s : kPowmClasses) {
      mpz_class ns;
      mpz_pow_ui(ns.get_mpz_t(), plain.pk.n.get_mpz_t(), s);
      const mpz_class mod = ns * plain.pk.n;
      const mpz_class base = rng.unit_mod(mod);
      const mpz_class e = rng.below(ns);
      const std::string name = std::string("ct_math.") + (secret ? "powm_sec" : "powm_pub") +
                               ".us.s" + std::to_string(s);
      if (secret) {
        const SecretMpz se(e);
        require(powm_sec(base, se, mod) == powm_pub(base, e, mod), "powm_sec");
        rows.push_back(time_calls(name, [&] { keep(powm_sec(base, se, mod)); }));
      } else {
        rows.push_back(time_calls(name, [&] { keep(powm_pub(base, e, mod)); }));
      }
    }
  }

  // Paillier at the threshold key's class; eval over one packed batch.
  const mpz_class m = rng.below(pk.ns);
  const SecretMpz sm(m);
  rows.push_back(time_calls("paillier.enc.us", [&] { keep(pk.enc(m, rng)); }));
  rows.push_back(time_calls("paillier.enc_secret.us", [&] { keep(pk.enc_secret(sm, rng)); }));
  const mpz_class m_plain = rng.below(plain.pk.ns);
  const mpz_class c_plain = plain.pk.enc(m_plain, rng);
  require(plain.dec(c_plain) == m_plain, "PaillierSK::dec");
  rows.push_back(time_calls("paillier.dec.us", [&] { keep(plain.dec(c_plain)); }));
  std::vector<mpz_class> cts, coeffs;
  for (unsigned i = 0; i < p.k; ++i) {
    cts.push_back(pk.enc(rng.below(pk.ns), rng));
    coeffs.push_back(rng.below(pk.ns));
  }
  rows.push_back(time_calls("paillier.eval.us", [&] { keep(pk.eval(cts, coeffs)); }));

  // Threshold Paillier at the workload's (n, t).
  const mpz_class c = pk.enc(m, rng);
  rows.push_back(time_calls("paillier.tpdec.us", [&] { keep(tpdec(tpk, tk.shares[0], c)); }));
  std::vector<unsigned> quorum;
  std::vector<mpz_class> partials;
  for (unsigned i = 1; i <= p.t + 1; ++i) {
    quorum.push_back(i);
    partials.push_back(tpdec(tpk, tk.shares[i - 1], c));
  }
  require(tdec(tpk, quorum, partials) == m, "tdec");
  rows.push_back(time_calls("paillier.tdec.us", [&] { keep(tdec(tpk, quorum, partials)); }));
  rows.push_back(time_calls("paillier.tkres.us", [&] {
    keep(tkres(tpk, tk.shares[0], rng).commitments.front());
  }));
  std::vector<ReshareMsg> reshares;
  std::vector<unsigned> dealers;
  for (unsigned i = 0; i < p.n; ++i) {
    reshares.push_back(tkres(tpk, tk.shares[i], rng));
    dealers.push_back(i + 1);
  }
  require(verify_reshare(tpk, reshares[0]), "verify_reshare");
  rows.push_back(
      time_calls("paillier.verify_reshare.us", [&] { keep(verify_reshare(tpk, reshares[0])); }));
  rows.push_back(time_calls("paillier.next_epoch_pk.us", [&] {
    keep(next_epoch_pk(tpk, dealers, reshares).vks.front());
  }));

  // NIZK.  link: the mask committee's pad statement, a threshold-key leg
  // and a role-key leg.
  const unsigned pad_bits = p.pad_bound_bits();
  const SecretMpz pad(rng.below(mpz_class(1) << pad_bits));
  mpz_class r1, r2;
  MaskMsg mask;
  mask.a = pk.enc_secret(pad, rng, &r1);
  mask.b = role.pk.enc_secret(pad, rng, &r2);
  LinkStatement link;
  link.domain = "pad";
  link.paillier_legs = {PaillierLeg{pk, mask.a}, PaillierLeg{role.pk, mask.b}};
  link.bound_bits = pad_bits;
  const LinkWitness link_w{pad, {SecretMpz(r1), SecretMpz(r2)}};
  mask.proof = link_prove(link, link_w, rng);
  require(link_verify(link, mask.proof), "link_prove/link_verify");
  rows.push_back(time_calls("nizk.link_prove.us", [&] { keep(link_prove(link, link_w, rng).z); }));
  rows.push_back(time_calls("nizk.link_verify.us", [&] { keep(link_verify(link, mask.proof)); }));

  const mpz_class partial = tpdec(tpk, tk.shares[0], c);
  const PdecProof pdec = prove_pdec(tpk, tk.shares[0], c, partial, rng);
  require(verify_pdec(tpk, 1, c, partial, pdec), "prove_pdec/verify_pdec");
  rows.push_back(time_calls("nizk.pdec_prove.us", [&] {
    keep(prove_pdec(tpk, tk.shares[0], c, partial, rng).inner.z);
  }));
  rows.push_back(
      time_calls("nizk.pdec_verify.us", [&] { keep(verify_pdec(tpk, 1, c, partial, pdec)); }));

  const mpz_class rho = rng.unit_mod(kff.pk.n);
  const mpz_class u = powm_pub(rho, kff.pk.ns, kff.pk.ns1);
  const SecretMpz srho(rho);
  const RootProof root = prove_root(kff.pk, u, srho, rng);
  require(verify_root(kff.pk, u, root), "prove_root/verify_root");
  rows.push_back(time_calls("nizk.root_prove.us", [&] { keep(prove_root(kff.pk, u, srho, rng).z); }));
  rows.push_back(time_calls("nizk.root_verify.us", [&] { keep(verify_root(kff.pk, u, root)); }));

  mpz_class r_pt;
  const mpz_class c_pt = pk.enc(m, rng, &r_pt);
  const SecretMpz sr_pt(r_pt);
  const PlaintextProof pt = prove_plaintext(pk, c_pt, sm, sr_pt, rng);
  require(verify_plaintext(pk, c_pt, pt), "prove_plaintext/verify_plaintext");
  rows.push_back(time_calls("nizk.plaintext_prove.us", [&] {
    keep(prove_plaintext(pk, c_pt, sm, sr_pt, rng).inner.z);
  }));
  rows.push_back(
      time_calls("nizk.plaintext_verify.us", [&] { keep(verify_plaintext(pk, c_pt, pt)); }));

  // mult: the Beaver committee's statement c_p = c_a^b * rho^{N^s}.
  const mpz_class c_a = pk.enc(rng.below(pk.ns), rng);
  const SecretMpz b(rng.below(pk.ns));
  mpz_class rb, rho_p;
  const mpz_class c_b = pk.enc_secret(b, rng, &rb);
  const mpz_class c_p = pk.rerandomize(pk.scal_secret(c_a, b), rng, &rho_p);
  const SecretMpz srb(rb), srho_p(rho_p);
  const MultProof mult = prove_mult(pk, c_a, c_b, c_p, b, srb, srho_p, rng);
  require(verify_mult(pk, c_a, c_b, c_p, mult), "prove_mult/verify_mult");
  rows.push_back(time_calls("nizk.mult_prove.us", [&] {
    keep(prove_mult(pk, c_a, c_b, c_p, b, srb, srho_p, rng).z);
  }));
  rows.push_back(
      time_calls("nizk.mult_verify.us", [&] { keep(verify_mult(pk, c_a, c_b, c_p, mult)); }));

  // Packed sharing and Lagrange over Z_{N^s}, one batch of k slots.
  const ZnRing ring(pk.ns);
  std::vector<mpz_class> secrets(p.k);
  for (auto& s : secrets) s = ring.random(rng);
  const unsigned degree = p.packed_degree();
  rows.push_back(time_calls("sharing.packed_share.us", [&] {
    keep(packed_share(ring, secrets, degree, p.n, rng).shares.front());
  }));
  const auto shared = packed_share(ring, secrets, degree, p.n, rng);
  require(packed_reconstruct(ring, shared.points, shared.shares, degree, p.k) == secrets,
          "packed_share/packed_reconstruct");
  rows.push_back(time_calls("sharing.packed_reconstruct.us", [&] {
    keep(packed_reconstruct(ring, shared.points, shared.shares, degree, p.k).front());
  }));
  const auto points = party_points(degree + 1);
  rows.push_back(time_calls("field.lagrange_coeffs.us", [&] {
    keep(lagrange_coeffs(ring, points, secret_point(0)).front());
  }));

  // Codec: one mask post carrying a batch of k MaskMsgs, encoded and decoded.
  const std::vector<MaskMsg> batch(p.k, mask);
  const auto encoded = encode_mask_batch(batch);
  require(encode_mask_batch(decode_mask_batch(encoded)) == encoded, "mask batch codec");
  rows.push_back(time_calls("wire.mask_batch_roundtrip.us", [&] {
    keep(decode_mask_batch(encode_mask_batch(batch)).front().a);
  }));
  return rows;
}

}  // namespace wallbench
