/**
 * @file
 * Extension experiment (paper Section 8): the Chat workload on Rhythm
 * (Titan B). Chat inverts the Banking profile — the dominant page type
 * (poll) is tiny and mutations (posts) are frequent — probing the
 * pipeline's behaviour with short cohorts and concurrent writes.
 */

#include "bench/page_sweep.hh"
#include "chat/service.hh"

using namespace rhythm;

int
main(int argc, char **argv)
{
    bench::PageSweep sweep(argc, argv, "ext_chat_workload",
                           "Extension: the Chat workload on Rhythm (Titan B)");
    // One room store for every type, so the post cohorts' messages
    // land where later types read them.
    chat::RoomStore store(256, 40, 7);
    return sweep.run(
        {chat::pageTable(), chat::kNumPageTypes}, "messages posted",
        [&](uint32_t t) {
            const auto type = static_cast<chat::PageType>(t);
            chat::ChatService service(store);
            chat::ChatGenerator gen(store, 29);
            const uint64_t posted_before = store.totalPosted();
            const platform::TypeRunResult r = sweep.isolate(
                service, [&](uint64_t) { return gen.generate(type); });
            return bench::PageSweep::TypeRun{
                r, withCommas(store.totalPosted() - posted_before)};
        },
        "the tiny poll page reaches the highest rate; the post\ncohorts "
        "really mutate the room store (messages posted column).\n");
}
