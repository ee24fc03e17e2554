#include <coal/net/wire_format.hpp>

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace coal::net::wire {

namespace {

/// CRC32C lookup table (reflected polynomial 0x82f63b78), built once.
struct crc_table
{
    std::array<std::uint32_t, 256> t{};

    constexpr crc_table()
    {
        for (std::uint32_t i = 0; i != 256; ++i)
        {
            std::uint32_t c = i;
            for (int k = 0; k != 8; ++k)
                c = (c & 1u) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
    }
};

constexpr crc_table g_crc{};

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

[[nodiscard]] std::uint16_t get_u16(std::uint8_t const* p) noexcept
{
    return static_cast<std::uint16_t>(
        p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] std::uint32_t get_u32(std::uint8_t const* p) noexcept
{
    return p[0] | (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
}

}    // namespace

namespace detail {

std::uint32_t crc32c_sw(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    auto const* p = static_cast<std::uint8_t const*>(data);
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i != size; ++i)
        c = g_crc.t[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return ~c;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    auto const* p = static_cast<std::uint8_t const*>(data);
    std::uint64_t c = ~seed;
    // Bytes up to an 8-byte boundary, then one instruction per word.
    for (; size != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0;
         ++p, --size)
        c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p);
    for (; size >= 8; p += 8, size -= 8)
    {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        c = _mm_crc32_u64(c, word);
    }
    for (; size != 0; ++p, --size)
        c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p);
    return ~static_cast<std::uint32_t>(c);
}

bool crc32c_hw_available() noexcept
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

#else

std::uint32_t crc32c_hw(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    return crc32c_sw(data, size, seed);
}

bool crc32c_hw_available() noexcept
{
    return false;
}

#endif

}    // namespace detail

std::uint32_t crc32c(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    using crc_fn = std::uint32_t (*)(
        void const*, std::size_t, std::uint32_t) noexcept;
    static crc_fn const fn = detail::crc32c_hw_available() ?
        &detail::crc32c_hw :
        &detail::crc32c_sw;
    return fn(data, size, seed);
}

void encode_header(frame_header const& h, std::uint8_t* out) noexcept
{
    put_u32(out + 0, frame_magic);
    out[4] = wire_version;
    out[5] = h.kind;
    put_u16(out + 6, h.flags);
    put_u32(out + 8, h.src);
    put_u32(out + 12, h.dst);
    put_u32(out + 16, h.payload_len);
    put_u32(out + 20, h.payload_crc);
    put_u32(out + 24, h.seq);
    put_u32(out + 28, crc32c(out, header_size - 4));
}

char const* to_string(decode_error e) noexcept
{
    switch (e)
    {
    case decode_error::bad_magic:
        return "bad-magic";
    case decode_error::bad_version:
        return "bad-version";
    case decode_error::bad_flags:
        return "bad-flags";
    case decode_error::bad_header_crc:
        return "bad-header-crc";
    case decode_error::oversized:
        return "oversized";
    case decode_error::bad_payload_crc:
        return "bad-payload-crc";
    case decode_error::truncated:
        return "truncated";
    }
    return "unknown";
}

frame_decoder::frame_decoder(std::size_t max_frame_bytes,
    frame_handler on_frame, error_handler on_error)
  : max_frame_bytes_(max_frame_bytes)
  , on_frame_(std::move(on_frame))
  , on_error_(std::move(on_error))
{
}

bool frame_decoder::parse_header() noexcept
{
    // Validation order matters for containment: everything about the
    // header is checked before payload_len is acted upon.
    auto fail = [this](decode_error e) {
        failed_ = true;
        ++stats_.fatal_errors;
        if (e == decode_error::oversized)
            ++stats_.oversized_drops;
        if (on_error_)
            on_error_(e);
        return false;
    };

    if (get_u32(header_ + 0) != frame_magic)
        return fail(decode_error::bad_magic);
    if (get_u32(header_ + 28) != crc32c(header_, header_size - 4))
        return fail(decode_error::bad_header_crc);
    if (header_[4] != wire_version)
        return fail(decode_error::bad_version);
    if (get_u16(header_ + 6) != 0)
        return fail(decode_error::bad_flags);

    current_.kind = header_[5];
    current_.flags = 0;
    current_.src = get_u32(header_ + 8);
    current_.dst = get_u32(header_ + 12);
    current_.payload_len = get_u32(header_ + 16);
    current_.payload_crc = get_u32(header_ + 20);
    current_.seq = get_u32(header_ + 24);

    if (current_.payload_len > max_frame_bytes_)
        return fail(decode_error::oversized);

    // The only allocation the decoder ever makes, and only for a
    // CRC-validated, cap-checked length.
    payload_ = current_.payload_len != 0 ?
        serialization::shared_buffer(current_.payload_len) :
        serialization::shared_buffer{};
    in_payload_ = true;
    have_ = 0;
    return true;
}

bool frame_decoder::feed(void const* data, std::size_t size) noexcept
{
    if (failed_)
        return false;

    auto const* p = static_cast<std::uint8_t const*>(data);
    while (size != 0)
    {
        if (!in_payload_)
        {
            std::size_t const want = header_size - have_;
            std::size_t const take = want < size ? want : size;
            std::memcpy(header_ + have_, p, take);
            have_ += take;
            p += take;
            size -= take;
            if (have_ != header_size)
                break;
            if (!parse_header())
                return false;
        }

        // Payload stage (possibly zero-length).
        std::size_t const want = current_.payload_len - have_;
        std::size_t const take = want < size ? want : size;
        if (take != 0)
            std::memcpy(payload_.mutable_data() + have_, p, take);
        p += take;
        size -= take;
        commit(take);
    }
    return true;
}

void frame_decoder::commit(std::size_t n) noexcept
{
    have_ += n;
    if (have_ != current_.payload_len)
        return;

    // Frame complete: verify the payload CRC before delivery.
    if (crc32c(payload_.data(), payload_.size()) != current_.payload_crc)
    {
        ++stats_.crc_drops;
        if (on_error_)
            on_error_(decode_error::bad_payload_crc);
    }
    else
    {
        ++stats_.frames;
        stats_.bytes += header_size + current_.payload_len;
        if (on_frame_)
            on_frame_(current_, std::move(payload_));
    }
    payload_ = serialization::shared_buffer{};
    in_payload_ = false;
    have_ = 0;
}

void frame_decoder::finish() noexcept
{
    if (failed_)
        return;
    if (have_ != 0 || in_payload_)
    {
        ++stats_.truncated_drops;
        if (on_error_)
            on_error_(decode_error::truncated);
    }
    payload_ = serialization::shared_buffer{};
    in_payload_ = false;
    have_ = 0;
}

void frame_decoder::reset() noexcept
{
    payload_ = serialization::shared_buffer{};
    in_payload_ = false;
    have_ = 0;
    failed_ = false;
}

}    // namespace coal::net::wire
