//! Reactive device-pool autoscaling against a tail-latency SLO.
//!
//! The [`Controller`] is a pure decision function: fed one
//! [`WindowObservation`] per metrics window (peak predicted queue delay,
//! measured utilization, active fleet size), it answers scale up, scale
//! down, or hold. Scale-up fires when the predicted p99 queue delay has
//! breached the SLO for `scale_up_windows` consecutive windows;
//! scale-down waits for `scale_down_windows` of sustained low
//! utilization *with* delay comfortably inside the SLO. Keeping the
//! policy pure makes it deterministic and unit-testable without a
//! service or a clock.
//!
//! The [`Autoscaler`] wraps the controller in a sampling thread over a
//! live [`Service`]. It watches the *predicted* queue delay — in-flight
//! admission cost divided by the calibrated per-API rate of the devices
//! currently in the fleet — rather than completion latencies, because
//! prediction moves the moment a burst lands in the queue, while p99
//! completions only confirm the damage afterwards. Scale events go
//! through [`Service::set_device_active`]: retiring keeps the device's
//! queued batches draining (drain-before-retire — no job is lost or
//! rerun), activation re-plans the shard partition through
//! `ShardPlan::migrated_from` so only chunks whose owner actually
//! changed migrate, and both directions are sized by re-predicting the
//! delay of the hypothetical fleet before committing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::service::Service;

/// Autoscaling policy knobs.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Predicted-queue-delay SLO: the controller scales up when the
    /// windowed peak prediction exceeds this. Keep it well under the
    /// end-to-end latency SLO — queueing is only one term of completion
    /// latency, and reacting at the full budget reacts too late.
    pub slo: Duration,
    /// Metrics window the controller decides at (one decision per
    /// window). Match the service's
    /// [`METRICS_WINDOW`](crate::service::METRICS_WINDOW) for aligned
    /// reporting.
    pub window: Duration,
    /// Delay samples taken per window; the window's signal is their
    /// peak, a windowed-p99 stand-in that a burst cannot hide from.
    pub samples_per_window: usize,
    /// Consecutive breached windows before scaling up.
    pub scale_up_windows: usize,
    /// Consecutive low-utilization windows before scaling down.
    pub scale_down_windows: usize,
    /// Utilization (busy wall-seconds / active device wall-seconds)
    /// below which a window counts toward scale-down.
    pub low_utilization: f64,
    /// Scale events target `headroom * slo` predicted delay: scale-up
    /// activates devices until the prediction is back under it, and
    /// scale-down refuses to retire a device if the survivor fleet's
    /// prediction would exceed it.
    pub headroom: f64,
    /// Never drop below this many active devices (the pool itself
    /// requires at least one).
    pub min_devices: usize,
    /// Never grow past this many active devices.
    pub max_devices: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            slo: Duration::from_millis(700),
            window: Duration::from_millis(250),
            samples_per_window: 5,
            scale_up_windows: 2,
            scale_down_windows: 6,
            low_utilization: 0.35,
            headroom: 0.5,
            min_devices: 1,
            max_devices: usize::MAX,
        }
    }
}

/// Which way a scale event moved the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// A device joined the fleet.
    Up,
    /// A device was retired (its queued batches drained first).
    Down,
}

/// One committed fleet change, with the evidence that drove it.
#[derive(Debug, Clone)]
pub struct ScaleEvent {
    /// When the event fired, measured from watch start.
    pub at: Duration,
    /// Direction of the change.
    pub direction: ScaleDirection,
    /// The device activated or retired.
    pub device: usize,
    /// Active devices after the event.
    pub active_after: usize,
    /// The windowed peak predicted queue delay that triggered the
    /// decision.
    pub predicted_delay: Duration,
    /// Admission-queue depth when the event fired.
    pub queue_depth: usize,
    /// Chunks the minimal-migration replan actually moved.
    pub migrated_chunks: usize,
}

/// One metrics window distilled for the controller.
#[derive(Debug, Clone, Copy)]
pub struct WindowObservation {
    /// Peak predicted queue delay sampled during the window.
    pub peak_predicted_delay: Duration,
    /// Busy wall-seconds over active device wall-seconds, in `[0, ~1]`.
    pub utilization: f64,
    /// Active devices during the window.
    pub active_devices: usize,
}

/// The controller's verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Add capacity until the predicted delay is back under headroom.
    ScaleUp,
    /// Retire one device if the survivors can hold the SLO.
    ScaleDown,
    /// Leave the fleet alone.
    Hold,
}

/// Pure windowed scale policy: consecutive-breach counting up,
/// sustained-low-utilization counting down, hysteresis between them.
#[derive(Debug, Clone)]
pub struct Controller {
    config: AutoscaleConfig,
    breach_streak: usize,
    low_streak: usize,
}

impl Controller {
    /// A controller with zeroed streaks.
    pub fn new(config: AutoscaleConfig) -> Controller {
        Controller {
            config,
            breach_streak: 0,
            low_streak: 0,
        }
    }

    /// The policy knobs the controller was built with.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Digest one window and decide. Streaks reset on any decision (the
    /// fleet just changed; old evidence is stale) and on any window
    /// contradicting them, so flapping requires sustained contradictory
    /// evidence, not one noisy window each way.
    pub fn decide(&mut self, obs: &WindowObservation) -> Decision {
        let breach = obs.peak_predicted_delay > self.config.slo;
        if breach {
            self.breach_streak += 1;
            self.low_streak = 0;
        } else {
            self.breach_streak = 0;
            // Only windows that are quiet on *both* signals — low
            // utilization and delay already inside the scale-up target —
            // count toward retiring capacity.
            let delay_ok = obs.peak_predicted_delay.as_secs_f64()
                <= self.config.slo.as_secs_f64() * self.config.headroom;
            if obs.utilization < self.config.low_utilization && delay_ok {
                self.low_streak += 1;
            } else {
                self.low_streak = 0;
            }
        }
        if self.breach_streak >= self.config.scale_up_windows
            && obs.active_devices < self.config.max_devices
        {
            self.breach_streak = 0;
            return Decision::ScaleUp;
        }
        if self.low_streak >= self.config.scale_down_windows
            && obs.active_devices > self.config.min_devices.max(1)
        {
            self.low_streak = 0;
            return Decision::ScaleDown;
        }
        Decision::Hold
    }
}

/// Predicted queue delay, in wall seconds, of `inflight_cost` admission
/// units drained by the active subset of `rates` (calibrated cost units
/// per simulated second each) under `pacing` wall-seconds per simulated
/// second (`0.0` = unpaced, simulated seconds pass at host speed). The
/// same arithmetic [`Service::predicted_queue_delay`] applies to the
/// live fleet, exposed so scale decisions can price *hypothetical*
/// fleets before committing.
pub fn predicted_delay_s(rates: &[f64], active: &[bool], inflight_cost: f64, pacing: f64) -> f64 {
    let rate: f64 = rates
        .iter()
        .zip(active)
        .filter(|&(_, &a)| a)
        .map(|(r, _)| r)
        .sum();
    let sim_s = inflight_cost / rate.max(1e-12);
    if pacing > 0.0 {
        sim_s * pacing
    } else {
        sim_s
    }
}

/// Everything a harness wants to know after a watched run.
#[derive(Debug, Clone)]
pub struct AutoscaleReport {
    /// Committed scale events in order.
    pub events: Vec<ScaleEvent>,
    /// Decision windows observed.
    pub windows: usize,
    /// Wall device-seconds of provisioned (active) capacity integrated
    /// over the watch — the cost side of the elasticity trade.
    pub device_seconds: f64,
    /// Most devices ever active during the watch.
    pub peak_active: usize,
    /// Fewest devices ever active during the watch.
    pub min_active: usize,
}

impl AutoscaleReport {
    /// Scale-up events committed.
    pub fn scale_ups(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.direction == ScaleDirection::Up)
            .count()
    }

    /// Scale-down events committed.
    pub fn scale_downs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.direction == ScaleDirection::Down)
            .count()
    }

    /// Chunks migrated across all scale events.
    pub fn migrated_chunks(&self) -> usize {
        self.events.iter().map(|e| e.migrated_chunks).sum()
    }
}

/// A running watch thread scaling a [`Service`]'s pool; stop it to get
/// the [`AutoscaleReport`].
pub struct Autoscaler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<AutoscaleReport>,
}

impl Autoscaler {
    /// Start watching `service`, sampling its predicted queue delay
    /// `config.samples_per_window` times per window and deciding once
    /// per window through a [`Controller`].
    ///
    /// # Panics
    /// Panics if `samples_per_window` is zero or `max_devices <
    /// min_devices`.
    pub fn watch(service: Arc<Service>, config: AutoscaleConfig) -> Autoscaler {
        assert!(
            config.samples_per_window > 0,
            "need at least one sample per window"
        );
        assert!(
            config.max_devices >= config.min_devices.max(1),
            "max_devices must admit the minimum fleet"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || watch_loop(&service, config, &flag));
        Autoscaler { stop, handle }
    }

    /// Stop sampling and collect the report. The fleet is left in
    /// whatever state the last committed event put it.
    pub fn stop(self) -> AutoscaleReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("autoscaler thread panicked")
    }
}

fn watch_loop(service: &Service, config: AutoscaleConfig, stop: &AtomicBool) -> AutoscaleReport {
    let tick = Duration::from_secs_f64(
        (config.window.as_secs_f64() / config.samples_per_window as f64).max(1e-4),
    );
    let window_s = config.window.as_secs_f64();
    let pacing = service.pacing();
    let started = Instant::now();
    let mut controller = Controller::new(config.clone());
    let mut events: Vec<ScaleEvent> = Vec::new();
    let mut windows = 0usize;
    let mut device_seconds = 0.0f64;
    let mut delays: Vec<f64> = Vec::with_capacity(config.samples_per_window);
    let mut busy_prev: f64 = service.metrics().devices.iter().map(|d| d.busy_s).sum();
    let initial_active = active_count(&service.active_devices());
    let mut peak_active = initial_active;
    let mut min_active = initial_active;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        let active = service.active_devices();
        let count = active_count(&active);
        peak_active = peak_active.max(count);
        min_active = min_active.min(count);
        device_seconds += count as f64 * tick.as_secs_f64();
        delays.push(service.predicted_queue_delay().as_secs_f64());
        if delays.len() < config.samples_per_window {
            continue;
        }
        let peak = delays.iter().fold(0.0f64, |a, &b| a.max(b));
        delays.clear();
        windows += 1;
        // Utilization: simulated busy seconds this window, mapped to wall
        // through pacing, over the wall capacity the active fleet offered.
        let busy_now: f64 = service.metrics().devices.iter().map(|d| d.busy_s).sum();
        let busy_delta = (busy_now - busy_prev).max(0.0);
        busy_prev = busy_now;
        let busy_wall = if pacing > 0.0 {
            busy_delta * pacing
        } else {
            busy_delta
        };
        let utilization = busy_wall / (window_s * count.max(1) as f64);
        let obs = WindowObservation {
            peak_predicted_delay: Duration::from_secs_f64(peak.min(1e9)),
            utilization,
            active_devices: count,
        };
        match controller.decide(&obs) {
            Decision::ScaleUp => {
                scale_up(service, &config, &obs, started, &mut events);
            }
            Decision::ScaleDown => {
                scale_down(service, &config, &obs, started, &mut events);
            }
            Decision::Hold => {}
        }
        let count = active_count(&service.active_devices());
        peak_active = peak_active.max(count);
        min_active = min_active.min(count);
    }
    AutoscaleReport {
        events,
        windows,
        device_seconds,
        peak_active,
        min_active,
    }
}

fn active_count(active: &[bool]) -> usize {
    active.iter().filter(|&&a| a).count()
}

/// Activate devices — fastest calibrated rate first — until the
/// re-predicted delay of the grown fleet is back under `headroom * slo`
/// or the fleet is maxed. Sizing against the prediction rather than
/// stepping one device per window is what lets one decision catch a
/// steep burst ramp.
fn scale_up(
    service: &Service,
    config: &AutoscaleConfig,
    obs: &WindowObservation,
    started: Instant,
    events: &mut Vec<ScaleEvent>,
) {
    let rates = service.device_admission_rates();
    let mut active = service.active_devices();
    let inflight = service.inflight_cost() as f64;
    let pacing = service.pacing();
    let target = config.slo.as_secs_f64() * config.headroom;
    loop {
        if active_count(&active) >= config.max_devices {
            return;
        }
        if predicted_delay_s(&rates, &active, inflight, pacing) <= target {
            return;
        }
        let Some(device) = (0..rates.len())
            .filter(|&d| !active[d])
            .max_by(|&a, &b| rates[a].total_cmp(&rates[b]))
        else {
            return;
        };
        let migrated = service.set_device_active(device, true);
        active[device] = true;
        events.push(ScaleEvent {
            at: started.elapsed(),
            direction: ScaleDirection::Up,
            device,
            active_after: active_count(&active),
            predicted_delay: obs.peak_predicted_delay,
            queue_depth: service.queue_depth(),
            migrated_chunks: migrated,
        });
    }
}

/// Retire the slowest active device, but only if the survivor fleet's
/// re-predicted delay stays under `headroom * slo` — otherwise hold.
/// One retirement per decision window: drain is gradual by design.
fn scale_down(
    service: &Service,
    config: &AutoscaleConfig,
    obs: &WindowObservation,
    started: Instant,
    events: &mut Vec<ScaleEvent>,
) {
    let rates = service.device_admission_rates();
    let mut active = service.active_devices();
    if active_count(&active) <= config.min_devices.max(1) {
        return;
    }
    let Some(device) = (0..rates.len())
        .filter(|&d| active[d])
        .min_by(|&a, &b| rates[a].total_cmp(&rates[b]))
    else {
        return;
    };
    active[device] = false;
    let survivors_delay = predicted_delay_s(
        &rates,
        &active,
        service.inflight_cost() as f64,
        service.pacing(),
    );
    if survivors_delay > config.slo.as_secs_f64() * config.headroom {
        return;
    }
    let migrated = service.set_device_active(device, false);
    events.push(ScaleEvent {
        at: started.elapsed(),
        direction: ScaleDirection::Down,
        device,
        active_after: active_count(&active),
        predicted_delay: obs.peak_predicted_delay,
        queue_depth: service.queue_depth(),
        migrated_chunks: migrated,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscaleConfig {
        AutoscaleConfig {
            slo: Duration::from_millis(100),
            scale_up_windows: 2,
            scale_down_windows: 3,
            low_utilization: 0.3,
            headroom: 0.5,
            min_devices: 1,
            max_devices: 4,
            ..AutoscaleConfig::default()
        }
    }

    fn obs(delay_ms: u64, util: f64, active: usize) -> WindowObservation {
        WindowObservation {
            peak_predicted_delay: Duration::from_millis(delay_ms),
            utilization: util,
            active_devices: active,
        }
    }

    #[test]
    fn scale_up_needs_consecutive_breaches() {
        let mut c = Controller::new(config());
        assert_eq!(c.decide(&obs(150, 0.9, 1)), Decision::Hold);
        // A good window resets the streak.
        assert_eq!(c.decide(&obs(50, 0.9, 1)), Decision::Hold);
        assert_eq!(c.decide(&obs(150, 0.9, 1)), Decision::Hold);
        assert_eq!(c.decide(&obs(150, 0.9, 1)), Decision::ScaleUp);
        // Deciding consumed the streak: the next breach starts over.
        assert_eq!(c.decide(&obs(150, 0.9, 2)), Decision::Hold);
    }

    #[test]
    fn scale_up_respects_max_devices() {
        let mut c = Controller::new(config());
        assert_eq!(c.decide(&obs(150, 0.9, 4)), Decision::Hold);
        assert_eq!(
            c.decide(&obs(150, 0.9, 4)),
            Decision::Hold,
            "fleet already maxed"
        );
    }

    #[test]
    fn scale_down_needs_sustained_low_utilization_and_slack_delay() {
        let mut c = Controller::new(config());
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::Hold);
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::Hold);
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::ScaleDown);
        // Low utilization with delay above headroom*slo (50ms) does not
        // count toward retiring capacity.
        assert_eq!(c.decide(&obs(80, 0.1, 2)), Decision::Hold);
        assert_eq!(c.decide(&obs(80, 0.1, 2)), Decision::Hold);
        assert_eq!(c.decide(&obs(80, 0.1, 2)), Decision::Hold);
    }

    #[test]
    fn scale_down_respects_min_devices() {
        let mut c = Controller::new(config());
        for _ in 0..10 {
            assert_eq!(
                c.decide(&obs(1, 0.0, 1)),
                Decision::Hold,
                "floor fleet never shrinks"
            );
        }
    }

    #[test]
    fn breaches_reset_the_low_streak() {
        let mut c = Controller::new(config());
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::Hold);
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::Hold);
        assert_eq!(
            c.decide(&obs(150, 0.1, 2)),
            Decision::Hold,
            "breach interrupts"
        );
        assert_eq!(
            c.decide(&obs(10, 0.1, 2)),
            Decision::Hold,
            "streak restarted"
        );
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::Hold);
        assert_eq!(c.decide(&obs(10, 0.1, 2)), Decision::ScaleDown);
    }

    #[test]
    fn hypothetical_fleet_delay_prices_active_subset() {
        let rates = [100.0, 300.0];
        assert!((predicted_delay_s(&rates, &[true, false], 50.0, 0.0) - 0.5).abs() < 1e-12);
        assert!((predicted_delay_s(&rates, &[true, true], 50.0, 0.0) - 0.125).abs() < 1e-12);
        // Pacing maps simulated drain time to wall clock.
        assert!((predicted_delay_s(&rates, &[true, true], 50.0, 10.0) - 1.25).abs() < 1e-12);
    }
}
