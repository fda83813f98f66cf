//! Background interface watching.
//!
//! The exception-driven path of §6 updates the client view when a call
//! fails; CDE additionally keeps the client's picture of the server fresh
//! *proactively* so that "live changes in the server's interface are
//! reflected in the running client program" even between calls. The
//! watcher polls the published interface description and, when the
//! version advances, refreshes the stub (and optionally reconciles a
//! bound dynamic class).

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jpie::ClassHandle;

use crate::client::ClientEnvironment;
use crate::stub::DynamicStub;

/// A running interface watcher. Dropping it stops the background thread.
#[derive(Debug)]
pub struct InterfaceWatcher {
    /// Dropped to stop the thread, which waits on it between polls.
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
    updates: Receiver<u64>,
}

impl InterfaceWatcher {
    /// Drains the versions observed since the last call (oldest first).
    pub fn updates(&self) -> Vec<u64> {
        self.updates.try_iter().collect()
    }

    /// Blocks until the next version change (or timeout).
    pub fn wait_for_update(&self, timeout: Duration) -> Option<u64> {
        self.updates.recv_timeout(timeout).ok()
    }

    /// Stops the watcher and joins its thread, as dropping it does.
    pub fn stop(self) {}
}

impl Drop for InterfaceWatcher {
    fn drop(&mut self) {
        self.stop = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
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
        let (stop, stopped) = channel::<()>();
        let (tx, rx) = channel();
        let env = self.clone();
        let thread = std::thread::Builder::new()
            .name("cde-interface-watcher".into())
            .spawn(move || {
                let polls = obs::registry().counter("cde_watch_polls_total");
                let updates = obs::registry().counter("cde_watch_updates_total");
                let mut last = stub.interface_version();
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    polls.inc();
                    // A transient fetch failure, or nothing new: keep
                    // watching.
                    let Some(version) = stub.refresh().ok().and_then(|()| stub.tick(last)) else {
                        continue;
                    };
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
            })
            .expect("spawn watcher thread");
        InterfaceWatcher {
            stop: Some(stop),
            thread: Some(thread),
            updates: rx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_watcher_stops_without_waiting_out_its_interval() {
        let doc = soap::WsdlDocument::minimal("Idle", "mem://watch-stop-endpoint/Idle").to_xml();
        let server = httpd::HttpServer::bind("mem://watch-stop", move |_: &httpd::Request| {
            httpd::Response::ok(doc.as_bytes().to_vec(), "text/xml")
        })
        .unwrap();
        let url = format!("{}/Idle.wsdl", server.base_url());
        let env = ClientEnvironment::new();
        let stub = env.connect_soap(&url).unwrap();
        let watcher = env.watch(stub, Duration::from_secs(2), None);
        let began = Instant::now();
        watcher.stop();
        let took = began.elapsed();
        assert!(took < Duration::from_millis(500), "stop took {took:?}");
    }
}
