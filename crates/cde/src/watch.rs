//! Background interface watching.
//!
//! The exception-driven path of §6 updates the client view when a call
//! fails; CDE additionally keeps the client's picture of the server fresh
//! *proactively* so that "live changes in the server's interface are
//! reflected in the running client program" even between calls. The
//! watcher polls the published interface description and, when the
//! version advances, refreshes the stub (and optionally reconciles a
//! bound dynamic class).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jpie::ClassHandle;

use crate::client::ClientEnvironment;
use crate::stub::DynamicStub;

/// A running interface watcher. Dropping it stops the background thread.
#[derive(Debug)]
pub struct InterfaceWatcher {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    updates: Receiver<u64>,
}

impl InterfaceWatcher {
    /// Drains the versions observed since the last call (oldest first).
    pub fn updates(&self) -> Vec<u64> {
        let mut versions = Vec::new();
        loop {
            match self.updates.try_recv() {
                Ok(v) => versions.push(v),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return versions,
            }
        }
    }

    /// Blocks until the next version change (or timeout).
    pub fn wait_for_update(&self, timeout: Duration) -> Option<u64> {
        self.updates.recv_timeout(timeout).ok()
    }

    /// Stops the watcher and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for InterfaceWatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ClientEnvironment {
    /// Starts watching `stub`'s published interface, refreshing the view
    /// every `interval`. When `bound` is given, the bound class is kept
    /// reconciled with each new interface version
    /// (see [`ClientEnvironment::sync_bound_class`]).
    pub fn watch(
        &self,
        stub: Arc<DynamicStub>,
        interval: Duration,
        bound: Option<ClassHandle>,
    ) -> InterfaceWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel();
        let thread_stop = stop.clone();
        let env = self.clone();
        let thread = std::thread::Builder::new()
            .name("cde-interface-watcher".into())
            .spawn(move || {
                let polls = obs::registry().counter("cde_watch_polls_total");
                let updates = obs::registry().counter("cde_watch_updates_total");
                let mut last = stub.interface_version();
                while !thread_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    if thread_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    polls.inc();
                    if stub.refresh().is_err() {
                        continue; // transient fetch failure: keep watching
                    }
                    let version = stub.interface_version();
                    if version != last {
                        last = version;
                        updates.inc();
                        obs::events::note(
                            "cde::watch",
                            "interface-update",
                            format!("version={version}"),
                        );
                        if let Some(class) = &bound {
                            env.sync_bound_class(class, &stub);
                        }
                        if tx.send(version).is_err() {
                            return; // receiver gone
                        }
                    }
                }
            })
            .expect("spawn watcher thread");
        InterfaceWatcher {
            stop,
            thread: Some(thread),
            updates: rx,
        }
    }
}
