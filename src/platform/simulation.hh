/**
 * @file
 * One single-device simulation run, built, armed, driven and measured
 * in one place.
 *
 * Every isolated run, rhythm_sim's single-device run and each point of
 * the directly driven benches is an independent simulation: one event
 * queue, one device, one server and its fault machinery. A Simulation
 * owns those parts and fixes the order they are built and armed in;
 * callers populate the server's state, arm, feed requests, run and read
 * the result.
 */

#ifndef RHYTHM_PLATFORM_SIMULATION_HH
#define RHYTHM_PLATFORM_SIMULATION_HH

#include <memory>
#include <optional>

#include "backend/recovery.hh"
#include "des/event_queue.hh"
#include "fault/plan.hh"
#include "net/arrival.hh"
#include "platform/titan.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "simt/profile_cache.hh"

namespace rhythm::platform {

/**
 * One single-device run. Its parts are built in member order: the event
 * queue, the warp profile cache (only with profile_cache_entries > 0),
 * the device and the server; arm() adds the fault plan and the journal,
 * and arrive() the open-loop arrival process, whose pending events hold
 * its address (so the object is neither copyable nor movable).
 */
class Simulation
{
  public:
    /**
     * Builds the run's queue, device and a server for @p service. With
     * @p profile_cache_entries > 0 a simt::ProfileCache of that many
     * entries is attached to the device engine and the server's parser
     * trace-template cache gets the same bound; outputs are
     * byte-identical either way, only host wall-clock changes.
     */
    Simulation(const simt::DeviceConfig &device,
               const core::RhythmConfig &server, core::Service &service,
               uint32_t profile_cache_entries = 0);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Arms the run (core::armRun): a fault plan when @p faults is not
     * quiet, and with @p recovery the journaled backend. Call after
     * session population: the journal's baseline holds what is
     * populated then.
     */
    void arm(const fault::FaultConfig &faults, bool recovery,
             uint64_t checkpoint_interval);

    /** Closed loop: the server pulls @p count requests, request i
     *  being @p source(i). */
    void pull(uint64_t count, RequestSource source);

    /**
     * Open loop: at each of @p count arrivals of @p arrivals, injects
     * @p source(i) as client i + 1. An arrival that finds the reader
     * full is dropped (RhythmStats::readerDrops).
     */
    void arrive(const net::ArrivalConfig &arrivals, uint64_t count,
                RequestSource source);

    /** Runs until the queue is empty or, with @p max_events > 0, until
     *  the queue has dispatched that many events. */
    void run(uint64_t max_events = 0);

    /** The run's metrics under @p power (TypeRunResult::type is left to
     *  the caller). */
    TypeRunResult measure(const TitanPowerModel &power) const;

    des::EventQueue &queue() { return queue_; }
    const des::EventQueue &queue() const { return queue_; }
    const simt::Device &device() const { return device_; }
    core::RhythmServer &server() { return server_; }
    const core::RhythmServer &server() const { return server_; }
    /** The warp profile cache; nullptr when off. */
    const simt::ProfileCache *profileCache() const { return cache_.get(); }
    /** The armed fault plan; nullptr when the schedule is quiet. */
    const fault::FaultPlan *plan() const { return plan_.get(); }
    /** The journaled backend; nullptr without recovery. */
    const backend::RecoverableBackend *journal() const
    {
        return journal_.get();
    }

  private:
    des::EventQueue queue_;
    std::unique_ptr<simt::ProfileCache> cache_;
    simt::Device device_;
    core::RhythmServer server_;
    std::unique_ptr<fault::FaultPlan> plan_;
    std::unique_ptr<backend::RecoverableBackend> journal_;
    std::optional<net::ArrivalProcess> arrivals_;
};

} // namespace rhythm::platform

#endif // RHYTHM_PLATFORM_SIMULATION_HH
