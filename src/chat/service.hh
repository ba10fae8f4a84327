/**
 * @file
 * The Chat workload as a Rhythm Service (paper Section 8).
 *
 * Four cohort types:
 *
 * | id | page      | path          | backend | buffer | mix % |
 * |----|-----------|---------------|---------|--------|-------|
 * | 0  | room list | /chat         | ROOMS   | 8 KiB  | 5     |
 * | 1  | history   | /chat/history | HIST    | 16 KiB | 25    |
 * | 2  | post      | /chat/post    | POST    | 4 KiB  | 15    |
 * | 3  | poll      | /chat/poll    | POLL    | 4 KiB  | 55    |
 *
 * Chat stresses the pipeline differently from Banking and Search: the
 * dominant type (poll) is tiny and mutation (post) is common, so
 * cohorts are short and the backend sees concurrent writes.
 */

#ifndef RHYTHM_CHAT_SERVICE_HH
#define RHYTHM_CHAT_SERVICE_HH

#include "chat/store.hh"
#include "rhythm/service.hh"

namespace rhythm::chat {

/** Cohort type ids of the Chat service. */
enum class PageType : uint32_t {
    RoomList = 0,
    History = 1,
    Post = 2,
    Poll = 3,
};

/** Number of Chat page types. */
inline constexpr uint32_t kNumPageTypes = 4;

/** Static metadata of one page type. */
using PageTypeInfo = core::TypeRow;

/** Metadata table (enum order). */
const PageTypeInfo *pageTable();

/** Chat on Rhythm. */
class ChatService : public core::TableService
{
  public:
    /** Binds to a room store (not owned). */
    explicit ChatService(RoomStore &store)
        : TableService({pageTable(), kNumPageTypes}), store_(store)
    {
    }

    void runStage(uint32_t type_id, int stage,
                  specweb::HandlerContext &ctx) const override;
    bool stageIsLaneParallel(uint32_t type_id, int stage) const override;
    std::string executeBackend(std::string_view request,
                               simt::TraceRecorder &rec) override;

  private:
    void roomList(int stage, specweb::HandlerContext &ctx) const;
    void history(int stage, specweb::HandlerContext &ctx) const;
    void post(int stage, specweb::HandlerContext &ctx) const;
    void poll(int stage, specweb::HandlerContext &ctx) const;

    RoomStore &store_;
};

/** Generates mix-distributed Chat requests. */
class ChatGenerator
{
  public:
    ChatGenerator(const RoomStore &store, uint64_t seed);

    /** Samples a page type from the mix. */
    PageType sampleType();

    /** Builds a raw request of the given type. */
    std::string generate(PageType type);

    /** Convenience: sampleType + generate (returns type via out). */
    std::string next(PageType &type_out);

  private:
    const RoomStore &store_;
    Rng rng_;
    MixSampler mix_;
};

/** Validates a Chat response (http::checkFraming, page markers). */
bool validateChatResponse(PageType type, std::string_view raw,
                          std::string *reason = nullptr);

} // namespace rhythm::chat

#endif // RHYTHM_CHAT_SERVICE_HH
