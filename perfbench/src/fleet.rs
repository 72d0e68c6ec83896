//! The system under test, in process: `doduo-served` daemons at their
//! shipped defaults and `doduo-balance` fronts, each on an ephemeral
//! loopback port and stopped (and joined) on drop.

use crate::load::wait_ready;
use doduo_balance::{BalanceConfig, BalanceHandle, Balancer};
use doduo_core::AnnotatorBundle;
use doduo_served::{ServeConfig, Server, ServerHandle};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon or balancer may take to answer `/v1/readyz`.
const READY_WITHIN: Duration = Duration::from_secs(60);

/// The daemon configuration every workload serves with: the shipped
/// defaults apart from the bind address (and the int8 switch).
pub fn serve_config(quant: bool) -> ServeConfig {
    let mut cfg = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    cfg.engine.quant = quant;
    cfg
}

/// One running `doduo-served`.
pub struct Daemon {
    /// `host:port` it listens on.
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, starts serving `bundle`, and waits for `/v1/readyz`.
    pub fn start(bundle: Arc<AnnotatorBundle>, quant: bool) -> Result<Daemon, String> {
        let server = Server::bind(serve_config(quant)).map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr().to_string();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run(bundle)));
        let d = Daemon { addr, handle, thread };
        wait_ready(&d.addr, READY_WITHIN)?;
        Ok(d)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One running `doduo-balance` in front of fixed backends.
pub struct Front {
    /// `host:port` it listens on.
    pub addr: String,
    handle: BalanceHandle,
    thread: Option<JoinHandle<()>>,
}

impl Front {
    /// Binds a balancer over `backends` (default settings apart from the
    /// bind address) and waits until it answers `/v1/readyz` through to a
    /// backend.
    pub fn start(backends: &[&str]) -> Result<Front, String> {
        let cfg = BalanceConfig {
            addr: "127.0.0.1:0".into(),
            static_backends: backends.iter().map(|s| s.to_string()).collect(),
            ..BalanceConfig::default()
        };
        let balancer = Balancer::bind(cfg).map_err(|e| format!("bind balancer: {e}"))?;
        let addr = balancer.addr().to_string();
        let handle = balancer.handle();
        let thread = Some(std::thread::spawn(move || {
            if let Err(e) = balancer.run() {
                eprintln!("[perfbench] balancer stopped: {e}");
            }
        }));
        let f = Front { addr, handle, thread };
        wait_ready(&f.addr, READY_WITHIN)?;
        Ok(f)
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Set-up trials per run; `setup_s` is their median.
pub const SETUP_TRIALS: usize = 5;

/// Runs `build` [`SETUP_TRIALS`] times, timing each from its start to
/// its return (which ends at the first `/v1/readyz` 200). Earlier trials
/// are torn down before the next starts; the last one is returned with
/// every trial's seconds.
pub fn set_up<T>(build: impl Fn() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_TRIALS);
    let mut last = None;
    for _ in 0..SETUP_TRIALS {
        drop(last.take());
        let t0 = Instant::now();
        let built = build()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one trial"), secs))
}
