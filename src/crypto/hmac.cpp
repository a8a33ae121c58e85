#include "crypto/hmac.hpp"

#include <algorithm>

namespace quicsand::crypto {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block_key{};
  if (key.size() > Sha256::kBlockSize) {
    const auto digest = Sha256::hash(key);
    std::copy(digest.begin(), digest.end(), block_key.begin());
  } else {
    // std::copy, not memcpy: an empty key may carry a null data pointer.
    std::copy(key.begin(), key.end(), block_key.begin());
  }

  std::array<std::uint8_t, Sha256::kBlockSize> ipad_key{};
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad_key[i] = block_key[i] ^ 0x36;
    opad_key_[i] = block_key[i] ^ 0x5c;
  }
  inner_.update(ipad_key);
}

void HmacSha256::update(std::span<const std::uint8_t> data) {
  inner_.update(data);
}

Sha256::Digest HmacSha256::finish() {
  const auto inner_digest = inner_.finish();
  Sha256 outer;
  outer.update(opad_key_);
  outer.update(inner_digest);
  return outer.finish();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

}  // namespace quicsand::crypto
