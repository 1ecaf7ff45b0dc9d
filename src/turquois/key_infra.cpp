#include "turquois/key_infra.hpp"

#include "common/assert.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::turquois {

KeyInfrastructure KeyInfrastructure::setup(const Config& cfg, Rng& rng) {
  KeyInfrastructure infra;
  infra.chains_.reserve(cfg.n);
  infra.signed_arrays_.reserve(cfg.n);
  infra.rsa_publics_.reserve(cfg.n);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    Rng chain_rng = rng.derive("ots-chain", id);
    infra.chains_.push_back(crypto::OneTimeKeyChain::generate(
        id, /*first_phase=*/1, cfg.phases_per_epoch, chain_rng));

    Rng rsa_rng = rng.derive("rsa", id);
    const crypto::RsaKeyPair rsa = crypto::rsa_generate(rsa_rng);
    infra.rsa_publics_.push_back(rsa.pub);
    infra.signed_arrays_.push_back(
        crypto::sign_key_array(infra.chains_.back().public_keys(), rsa));

    // The paper's receivers verify each array's signature on arrival;
    // setup performs the same check once.
    TURQ_ASSERT(crypto::verify_key_array(infra.signed_arrays_.back(), rsa.pub));
  }
  return infra;
}

std::vector<KeyInfrastructure> KeyInfrastructure::setup_batch(
    const Config& cfg, Rng& rng, std::uint32_t instances) {
  TURQ_ASSERT(instances >= 1);
  std::vector<KeyInfrastructure> out(instances);
  for (auto& infra : out) {
    infra.chains_.reserve(cfg.n);
    infra.signed_arrays_.reserve(cfg.n);
    infra.rsa_publics_.reserve(cfg.n);
  }

  // Slots of one chain: phases [1, phases_per_epoch], 2 or 3 values each.
  std::size_t slots = 0;
  for (crypto::Phase p = 1; p < 1 + cfg.phases_per_epoch; ++p) {
    slots += crypto::VerificationKeyArray::slots_for_phase(p);
  }

  for (ProcessId id = 0; id < cfg.n; ++id) {
    // One draw pass and ONE batched hash sweep span all instances' chains
    // of this process — the amortization that makes deep pipelines cheap
    // to key. Instance-major layout; every instance still gets disjoint
    // secrets (a revealed SK must never sign in a sibling instance).
    Rng chain_rng = rng.derive("ots-chain", id);
    std::vector<crypto::SecretKey> secrets(instances * slots);
    for (auto& sk : secrets) {
      for (auto& byte : sk) byte = static_cast<std::uint8_t>(chain_rng.next());
    }
    std::vector<BytesView> views(secrets.size());
    for (std::size_t i = 0; i < secrets.size(); ++i) views[i] = secrets[i];
    std::vector<crypto::Digest> vks(secrets.size());
    crypto::sha256_batch(views.data(), views.size(), vks.data());

    // One RSA pair per process per batch: the paper's trapdoor key belongs
    // to the process, so it signs every instance's VK array.
    Rng rsa_rng = rng.derive("rsa", id);
    const crypto::RsaKeyPair rsa = crypto::rsa_generate(rsa_rng);

    for (std::uint32_t inst = 0; inst < instances; ++inst) {
      const std::size_t base = static_cast<std::size_t>(inst) * slots;
      std::vector<crypto::SecretKey> chain_secrets(
          secrets.begin() + base, secrets.begin() + base + slots);
      std::vector<crypto::Digest> chain_vks(vks.begin() + base,
                                            vks.begin() + base + slots);
      KeyInfrastructure& infra = out[inst];
      infra.chains_.push_back(crypto::OneTimeKeyChain::from_parts(
          std::move(chain_secrets),
          crypto::VerificationKeyArray(id, /*first_phase=*/1,
                                       std::move(chain_vks))));
      infra.rsa_publics_.push_back(rsa.pub);
      infra.signed_arrays_.push_back(
          crypto::sign_key_array(infra.chains_.back().public_keys(), rsa));
      TURQ_ASSERT(
          crypto::verify_key_array(infra.signed_arrays_.back(), rsa.pub));
    }
  }
  return out;
}

}  // namespace turq::turquois
