#include "rhythm/buffers.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace rhythm::core {
namespace {

/** Block ids for the buffer machinery. */
enum BufferBlock : uint32_t {
    kBlockStorePass = 5100,  //!< Replayed store of one append.
    kBlockPadReduce = 5101,  //!< Warp butterfly max-reduction.
    kBlockPatch = 5102,      //!< Content-Length back-patch store.
};

/** Instruction weight of a warp butterfly max reduction (log2(32) steps
 *  of shuffle+max through shared memory, Section 4.6). */
constexpr uint32_t kReduceInsts = 30;

} // namespace

/**
 * Per-lane ResponseWriter view over the cohort buffer. Generation work
 * (instructions, source reads) is charged at append time; stores are
 * replayed with layout and padding by CohortBuffer::finalizeStores().
 * The content bytes land directly in the lane's slot (zero-copy);
 * distinct lanes write disjoint slots, so writers of different lanes
 * may run on different pool workers concurrently.
 */
class LaneWriter : public specweb::ResponseWriter
{
  public:
    LaneWriter(CohortBuffer &parent, uint32_t lane)
        : parent_(parent), lane_(lane)
    {
    }

    /** Rebinds the recorder charged for generation work. */
    void bind(simt::TraceRecorder &rec) { rec_ = &rec; }

    void
    appendStatic(uint32_t block_id, std::string_view text) override
    {
        charge(block_id, text.size(), false);
        write(text.data(), text.size());
    }

    void
    appendDynamic(uint32_t block_id, std::string_view text) override
    {
        charge(block_id, text.size(), true);
        write(text.data(), text.size());
    }

    size_t
    reserve(uint32_t block_id, size_t width) override
    {
        auto &lane = parent_.lanes_[lane_];
        const size_t offset = lane.size;
        charge(block_id, width, false);
        writeSpaces(width);
        return offset;
    }

    void
    patch(size_t offset, std::string_view text) override
    {
        auto &lane = parent_.lanes_[lane_];
        RHYTHM_ASSERT(offset + text.size() <= lane.size,
                      "patch outside reservation");
        rec_->block(kBlockPatch, 24);
        if (lane.spilled)
            lane.spill.replace(offset, text.size(), text);
        else
            std::memcpy(parent_.slot(lane_) + offset, text.data(),
                        text.size());
    }

    size_t
    size() const override
    {
        return parent_.lanes_[lane_].size;
    }

  private:
    /** Records the generation instructions and source reads of one
     *  append, before the content bytes are written. */
    void
    charge(uint32_t block_id, size_t bytes, bool dynamic)
    {
        RHYTHM_ASSERT(rec_, "writer used before bind()");
        auto &lane = parent_.lanes_[lane_];
        lane.used = true;
        rec_->block(block_id,
                    16 + static_cast<uint32_t>(bytes) *
                             parent_.config_.instsPerByte);
        const uint32_t words = static_cast<uint32_t>((bytes + 3) / 4);
        if (words > 0) {
            if (dynamic) {
                // Dynamic source (backend response region): laid out with
                // the same cohort geometry as the response buffers.
                const uint64_t src =
                    parent_.elementAddr(lane_, lane.size) + 0x4000'0000;
                const uint32_t stride =
                    parent_.config_.layout == BufferLayout::Transposed
                        ? parent_.config_.cohortSize * 4
                        : 4;
                rec_->load(src, words, stride, 4);
            } else {
                // Static template content lives in constant memory.
                rec_->load(0x1000 + block_id * 4096, words, 4, 4,
                           simt::MemSpace::Constant);
            }
        }
        lane.appends.push_back(
            CohortBuffer::Append{block_id,
                                 static_cast<uint32_t>(bytes)});
    }

    /** Appends raw bytes into the slot (or the spill fallback). */
    void
    write(const char *data, size_t len)
    {
        auto &lane = parent_.lanes_[lane_];
        if (!lane.spilled) {
            if (lane.size + len <= parent_.config_.laneBytes) {
                std::memcpy(parent_.slot(lane_) + lane.size, data, len);
                lane.size += static_cast<uint32_t>(len);
                return;
            }
            spillOut(lane);
        }
        lane.spill.append(data, len);
        lane.size += static_cast<uint32_t>(len);
    }

    /** Appends whitespace word-at-a-time (no temporary string). */
    void
    writeSpaces(size_t len)
    {
        auto &lane = parent_.lanes_[lane_];
        if (!lane.spilled) {
            if (lane.size + len <= parent_.config_.laneBytes) {
                std::memset(parent_.slot(lane_) + lane.size, ' ', len);
                lane.size += static_cast<uint32_t>(len);
                return;
            }
            spillOut(lane);
        }
        lane.spill.append(len, ' ');
        lane.size += static_cast<uint32_t>(len);
    }

    /** Migrates a lane that outgrew its slot onto the heap. */
    void
    spillOut(CohortBuffer::Lane &lane)
    {
        lane.spill.assign(parent_.slot(lane_), lane.size);
        lane.spilled = true;
    }

    CohortBuffer &parent_;
    uint32_t lane_;
    simt::TraceRecorder *rec_ = nullptr;
};

CohortBuffer::CohortBuffer(const CohortBufferConfig &config)
    : config_(config),
      slots_(std::make_unique<char[]>(
          static_cast<size_t>(config.cohortSize) * config.laneBytes)),
      lanes_(config.cohortSize)
{
    RHYTHM_ASSERT(config.cohortSize > 0 && config.laneBytes > 0);
    RHYTHM_ASSERT(config.warpWidth > 0);
    writers_.reserve(config.cohortSize);
    for (uint32_t l = 0; l < config.cohortSize; ++l)
        writers_.push_back(std::make_unique<LaneWriter>(*this, l));
}

char *
CohortBuffer::slot(uint32_t lane)
{
    return slots_.get() + static_cast<size_t>(lane) * config_.laneBytes;
}

const char *
CohortBuffer::slot(uint32_t lane) const
{
    return slots_.get() + static_cast<size_t>(lane) * config_.laneBytes;
}

specweb::ResponseWriter &
CohortBuffer::writer(uint32_t lane, simt::TraceRecorder &rec)
{
    RHYTHM_ASSERT(lane < config_.cohortSize);
    auto *w = static_cast<LaneWriter *>(writers_[lane].get());
    w->bind(rec);
    return *w;
}

std::string_view
CohortBuffer::content(uint32_t lane) const
{
    RHYTHM_ASSERT(lane < config_.cohortSize);
    const Lane &l = lanes_[lane];
    if (l.spilled)
        return l.spill;
    return std::string_view(slot(lane), l.size);
}

size_t
CohortBuffer::contentSize(uint32_t lane) const
{
    RHYTHM_ASSERT(lane < config_.cohortSize);
    return lanes_[lane].size;
}

bool
CohortBuffer::spilled(uint32_t lane) const
{
    RHYTHM_ASSERT(lane < config_.cohortSize);
    return lanes_[lane].spilled;
}

uint64_t
CohortBuffer::elementAddr(uint32_t lane, size_t offset) const
{
    if (config_.layout == BufferLayout::Transposed) {
        // 4-byte elements interleaved across the cohort: element e of
        // lane l lives at base + e*cohortSize*4 + l*4.
        return transposedRegionAddr(config_.deviceBase, lane, offset,
                                    config_.cohortSize);
    }
    return config_.deviceBase +
           static_cast<uint64_t>(lane) * config_.laneBytes + offset;
}

void
CohortBuffer::finalizeStores(std::vector<simt::ThreadTrace> &traces)
{
    RHYTHM_ASSERT(traces.size() >= lanes_.size(),
                  "trace vector smaller than cohort");
    const uint32_t width = static_cast<uint32_t>(config_.warpWidth);
    const uint32_t n = static_cast<uint32_t>(lanes_.size());
    const size_t warps = (n + width - 1) / width;
    const bool pad = config_.padToWarpMax;
    const uint32_t stride = config_.layout == BufferLayout::Transposed
                                ? config_.cohortSize * 4
                                : 4;

    // Warps are independent (each touches only its own lanes' traces
    // and Lane records), so the replay fans out over the sim pool; the
    // shared padding/overflow totals come from per-warp slots reduced
    // in canonical warp order below — byte-identical at any thread
    // count.
    std::vector<uint64_t> warp_padding(warps, 0);
    std::vector<uint8_t> warp_overflow(warps, 0);
    util::simPool().parallelRanges(
        warps, 1, [&](size_t wbegin, size_t wend) {
            // Warp-max length of each append index (the butterfly
            // reduction on device), one warp at a time.
            std::vector<uint32_t> max_len;
            for (size_t w = wbegin; w < wend; ++w) {
                const uint32_t base = static_cast<uint32_t>(w) * width;
                const uint32_t warp_lanes = std::min(width, n - base);
                max_len.clear();
                if (pad) {
                    for (uint32_t l = 0; l < warp_lanes; ++l) {
                        const Lane &lane = lanes_[base + l];
                        if (!lane.used)
                            continue;
                        if (max_len.size() < lane.appends.size())
                            max_len.resize(lane.appends.size(), 0);
                        for (size_t j = 0; j < lane.appends.size(); ++j)
                            max_len[j] = std::max(max_len[j],
                                                  lane.appends[j].length);
                    }
                }
                // Each lane replays its own appends in order, one store
                // pass (a block, plus a store unless empty) per append.
                for (uint32_t l = 0; l < warp_lanes; ++l) {
                    Lane &lane = lanes_[base + l];
                    if (!lane.used)
                        continue;
                    simt::ThreadTrace &t = traces[base + l];
                    t.blocks.reserve(t.blocks.size() + lane.appends.size());
                    t.memOps.reserve(t.memOps.size() + lane.appends.size());
                    size_t offset = 0;
                    for (size_t j = 0; j < lane.appends.size(); ++j) {
                        const uint32_t own = lane.appends[j].length;
                        const uint32_t stored = pad ? max_len[j] : own;
                        const uint32_t mem_begin =
                            static_cast<uint32_t>(t.memOps.size());
                        if (stored > 0) {
                            t.memOps.push_back(simt::MemOp{
                                elementAddr(base + l, offset),
                                (stored + 3) / 4, stride, 4,
                                simt::MemSpace::Global, true});
                        }
                        t.blocks.push_back(simt::BlockExec{
                            kBlockStorePass,
                            20 + stored * 2 + (pad ? kReduceInsts : 0),
                            mem_begin, stored > 0 ? 1u : 0u});
                        warp_padding[w] += stored - own;
                        offset += stored;
                    }
                    lane.paddedSize = offset;
                    if (offset > config_.laneBytes)
                        warp_overflow[w] = 1;
                }
            }
        });
    for (size_t w = 0; w < warps; ++w) {
        paddingBytes_ += warp_padding[w];
        if (warp_overflow[w])
            overflowed_ = true;
    }
}

size_t
CohortBuffer::paddedSize(uint32_t lane) const
{
    RHYTHM_ASSERT(lane < config_.cohortSize);
    return lanes_[lane].paddedSize;
}

double
CohortBuffer::bufferUtilization() const
{
    uint64_t content = 0;
    uint64_t allocated = 0;
    for (const Lane &lane : lanes_) {
        if (!lane.used)
            continue;
        content += lane.size;
        allocated += config_.laneBytes;
    }
    return allocated == 0
               ? 0.0
               : static_cast<double>(content) /
                     static_cast<double>(allocated);
}

void
transposeRegionLoads(simt::ThreadTrace &trace, uint64_t region_base,
                     uint32_t lane, uint32_t slot_bytes, uint32_t cohort)
{
    const uint64_t lane_base =
        region_base + static_cast<uint64_t>(lane) * slot_bytes;
    for (simt::MemOp &op : trace.memOps) {
        if (op.isStore || op.addr < lane_base ||
            op.addr >= lane_base + slot_bytes)
            continue;
        op.addr = transposedRegionAddr(region_base, lane,
                                       op.addr - lane_base, cohort);
        op.stride = cohort * 4;
    }
}

void
rebaseRegionTrace(simt::ThreadTrace &trace, uint64_t region_base,
                  uint32_t lane, uint32_t slot_bytes, uint32_t cohort,
                  bool transpose)
{
    const uint64_t lane_base =
        region_base + static_cast<uint64_t>(lane) * slot_bytes;
    for (simt::MemOp &op : trace.memOps) {
        if (transpose && !op.isStore && op.addr < slot_bytes) {
            op.addr =
                transposedRegionAddr(region_base, lane, op.addr, cohort);
            op.stride = cohort * 4;
        } else {
            op.addr += lane_base;
        }
    }
}

void
untransposeRegionLoads(simt::ThreadTrace &trace, uint64_t region_base,
                       uint32_t lane, uint32_t slot_bytes, uint32_t cohort)
{
    const uint64_t lane_base =
        region_base + static_cast<uint64_t>(lane) * slot_bytes;
    const uint64_t region_bytes =
        static_cast<uint64_t>(slot_bytes) * cohort;
    for (simt::MemOp &op : trace.memOps) {
        if (op.isStore || op.addr < region_base ||
            op.addr >= region_base + region_bytes)
            continue;
        const uint64_t toff = op.addr - region_base;
        const uint64_t element = toff / (cohort * 4ull);
        const uint64_t within = toff % (cohort * 4ull);
        if (within / 4 != lane)
            continue; // another lane's interleaved element
        op.addr = lane_base + element * 4 + within % 4;
        op.stride = 4;
    }
}

void
CohortBuffer::reset()
{
    for (Lane &lane : lanes_) {
        lane.size = 0;
        lane.appends.clear();
        lane.paddedSize = 0;
        lane.used = false;
        if (lane.spilled) {
            lane.spilled = false;
            lane.spill.clear();
            lane.spill.shrink_to_fit();
        }
    }
    paddingBytes_ = 0;
    overflowed_ = false;
}

} // namespace rhythm::core
