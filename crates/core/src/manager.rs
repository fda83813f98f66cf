//! The SDE Manager: oversees subsystem initialization and acts as the
//! central point of communication between components (§5.1); its user
//! surface is the SDE Manager Interface of §4 (publication timeout
//! control, manual publication, viewing the published documents).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jpie::{ClassHandle, Instance};
use obs::sync::RwLock;

use crate::corba_server::CorbaServer;
use crate::docs::{DocumentStore, InterfaceServer};
use crate::error::SdeError;
use crate::gateway::{GatewayCore, SdeServerGateway, Technology};
use crate::publish::PublicationStrategy;
use crate::soap_server::SoapServer;
use crate::wal::VersionWal;

/// Which transport newly deployed endpoints use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process endpoints: process-private `mem://` names, no ports
    /// (used by tests and the consistency experiments).
    Mem,
    /// TCP loopback endpoints (used by the RTT benchmarks, mirroring the
    /// paper's LAN testbed).
    Tcp,
}

/// Configuration for an [`SdeManager`].
#[derive(Debug, Clone)]
pub struct SdeConfig {
    /// Transport for the interface server and all deployed endpoints.
    pub transport: TransportKind,
    /// Initial publication strategy for new deployments. The paper's
    /// default is the stable timeout (§5.6).
    pub strategy: PublicationStrategy,
    /// Directory for the durable publication log. When set, every
    /// interface publication is appended to a per-authority
    /// [`VersionWal`](crate::VersionWal) before it becomes visible, and a
    /// manager restarted at the same interface address replays the log so
    /// redeployed classes resume at `version >= pre-crash`. `None`
    /// (the default) keeps everything in memory.
    pub wal_dir: Option<std::path::PathBuf>,
}

impl Default for SdeConfig {
    fn default() -> Self {
        SdeConfig {
            transport: TransportKind::Mem,
            strategy: PublicationStrategy::StableTimeout(Duration::from_millis(200)),
            wal_dir: None,
        }
    }
}

static ADDR_COUNTER: AtomicU64 = AtomicU64::new(1);

fn fresh_addr(transport: TransportKind, what: &str) -> String {
    match transport {
        TransportKind::Mem => format!(
            "mem://sde-{what}-{}",
            ADDR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ),
        TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
    }
}

enum ManagedServer {
    Soap(Arc<SoapServer>),
    Corba(Arc<CorbaServer>),
}

impl ManagedServer {
    fn gateway(&self) -> &dyn SdeServerGateway {
        match self {
            ManagedServer::Soap(s) => s.as_ref(),
            ManagedServer::Corba(s) => s.as_ref(),
        }
    }
}

/// The SDE Manager.
///
/// Deploying a class is the paper's "user extends `SOAPServer` /
/// `CORBAServer`" event: the manager creates the technology's DL
/// Publisher and Call Handler, wires them together, and immediately
/// publishes the initial (minimal) interface description — the automated
/// deployment that lets developers "devote their full attention to the
/// implementation of server logic".
///
/// # Examples
///
/// ```
/// use jpie::{ClassHandle, MethodBuilder, TypeDesc, Value};
/// use jpie::expr::Expr;
/// use sde::{SdeConfig, SdeManager, SdeServerGateway};
///
/// # fn main() -> Result<(), sde::SdeError> {
/// let manager = SdeManager::new(SdeConfig::default())?;
/// let class = ClassHandle::new("Greeter");
/// class.add_method(
///     MethodBuilder::new("greet", TypeDesc::Str)
///         .param("who", TypeDesc::Str)
///         .distributed(true)
///         .body_expr(Expr::lit("hello ") + Expr::param("who")),
/// )?;
/// let server = manager.deploy_soap(class)?;
/// server.create_instance()?;
/// // The WSDL is already published at server.wsdl_url().
/// manager.shutdown();
/// # Ok(())
/// # }
/// ```
/// Everything a planned migration carries from one manager to another:
/// the dynamic class, the live instance (all field state), and the
/// exactly-once reply cache. Produced by [`SdeManager::export_class`],
/// consumed by [`SdeManager::import_class`].
pub struct ClassExport {
    /// The dynamic class behind the gateway (interface version rides
    /// along, preserving the recency floor).
    pub class: ClassHandle,
    /// The live instance, if one was created.
    pub instance: Option<Arc<Instance>>,
    /// Which wire the class was serving.
    pub technology: Technology,
    replies: Vec<(obs::CallId, crate::replycache::CachedReply)>,
}

impl std::fmt::Debug for ClassExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassExport")
            .field("class", &self.class.name())
            .field("technology", &self.technology)
            .field("replies", &self.replies.len())
            .finish_non_exhaustive()
    }
}

pub struct SdeManager {
    config: SdeConfig,
    interface_server: InterfaceServer,
    servers: RwLock<HashMap<String, ManagedServer>>,
    /// Per-handler §5.7 stale-notification counters.
    stale_counters: RwLock<Vec<Arc<AtomicU64>>>,
    /// Durable publication log (when [`SdeConfig::wal_dir`] is set).
    wal: Option<Arc<VersionWal>>,
}

impl std::fmt::Debug for SdeManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdeManager")
            .field("interface_server", &self.interface_server.base_url())
            .field("managed", &self.servers.read().len())
            .finish_non_exhaustive()
    }
}

impl SdeManager {
    /// Starts a manager (and its Interface Server).
    ///
    /// # Errors
    ///
    /// Fails if the Interface Server endpoint cannot be bound.
    pub fn new(config: SdeConfig) -> Result<SdeManager, SdeError> {
        let addr = fresh_addr(config.transport, "ifc");
        SdeManager::with_interface_addr(config, &addr)
    }

    /// Starts a manager whose Interface Server binds `addr` instead of a
    /// fresh generated address. This makes restart scenarios testable:
    /// a new manager can come back at the *same* published URL, so
    /// clients holding stale documents reconverge once their breaker
    /// half-opens.
    ///
    /// # Errors
    ///
    /// Fails if the Interface Server endpoint cannot be bound.
    pub fn with_interface_addr(config: SdeConfig, addr: &str) -> Result<SdeManager, SdeError> {
        let interface_server = InterfaceServer::bind(addr)?;
        let wal = match &config.wal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| SdeError::State(format!("wal dir {}: {e}", dir.display())))?;
                // One log per published authority: a restart at the same
                // interface address finds the same file and replays it.
                let wal = Arc::new(
                    VersionWal::open(&crate::wal::wal_path_for(dir, addr))
                        .map_err(|e| SdeError::State(format!("wal open: {e}")))?,
                );
                interface_server.store().attach_wal(wal.clone());
                Some(wal)
            }
            None => None,
        };
        Ok(SdeManager {
            config,
            interface_server,
            servers: RwLock::new(HashMap::new()),
            stale_counters: RwLock::new(Vec::new()),
            wal,
        })
    }

    /// Starts a manager that adopts an existing WAL directory under a
    /// (possibly new) authority: the failover path. A follower that has
    /// been replicating a dead shard's log calls this with its replica
    /// directory; if the directory holds exactly one `*.wal` whose name
    /// does not match `addr`, it is renamed to the name a manager at
    /// `addr` replays — so promotion is one call instead of the previous
    /// three-step rename/config/bind dance. The transport is inferred
    /// from the address scheme, and redeployed classes are floored at
    /// `version >= pre-crash` exactly as in same-authority restart.
    ///
    /// # Errors
    ///
    /// Fails if the WAL cannot be adopted or `addr` cannot be bound.
    pub fn with_authority(addr: &str, wal_dir: &std::path::Path) -> Result<SdeManager, SdeError> {
        let transport = if addr.starts_with("mem://") {
            TransportKind::Mem
        } else {
            TransportKind::Tcp
        };
        let target = crate::wal::wal_path_for(wal_dir, addr);
        if !target.exists() {
            let mut logs: Vec<std::path::PathBuf> = std::fs::read_dir(wal_dir)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
                        .collect()
                })
                .unwrap_or_default();
            if logs.len() == 1 {
                let source = logs.pop().expect("one log");
                std::fs::rename(&source, &target)
                    .map_err(|e| SdeError::State(format!("wal adopt: {e}")))?;
                obs::trace::event(
                    "sde::manager",
                    "wal-adopt",
                    format!("from={} to={}", source.display(), target.display()),
                );
            }
        }
        let config = SdeConfig {
            transport,
            wal_dir: Some(wal_dir.to_path_buf()),
            ..SdeConfig::default()
        };
        SdeManager::with_interface_addr(config, addr)
    }

    /// Applies the replayed WAL floor for `class_name`'s documents to the
    /// class, so the first publication after a restart is at
    /// `version >= pre-crash` — the §6 recency guarantee across crashes.
    fn restore_from_wal(&self, class: &ClassHandle) {
        let Some(wal) = &self.wal else { return };
        let name = class.name();
        let floor = [format!("/{name}.wsdl"), format!("/{name}.idl")]
            .iter()
            .filter_map(|p| wal.floor(p))
            .max();
        if let Some(floor) = floor {
            class.restore_version_floor(floor);
            obs::trace::event(
                "sde::manager",
                "wal-restore",
                format!("class={name} version_floor={floor}"),
            );
        }
    }

    /// The shared Interface Server.
    pub fn interface_server(&self) -> &InterfaceServer {
        &self.interface_server
    }

    /// The shared document store (both subsystems publish into it).
    pub fn store(&self) -> &DocumentStore {
        self.interface_server.store()
    }

    /// The durable publication log, when one is configured — a
    /// replication leader streams it to a follower (see
    /// [`crate::walrepl`]).
    pub fn wal(&self) -> Option<Arc<VersionWal>> {
        self.wal.clone()
    }

    /// Number of §5.7 stale-call notifications received from handlers.
    pub fn stale_notifications(&self) -> u64 {
        self.stale_counters
            .read()
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum()
    }

    /// Deploys `class` as a SOAP server (the paper's "extends
    /// `SOAPServer`" flow, §5.1.1).
    ///
    /// # Errors
    ///
    /// Fails if a server with the same class name is already managed or an
    /// endpoint cannot be bound.
    pub fn deploy_soap(&self, class: ClassHandle) -> Result<Arc<SoapServer>, SdeError> {
        let name = class.name();
        self.check_unmanaged(&name)?;
        self.restore_from_wal(&class);
        let endpoint_addr = fresh_addr(self.config.transport, "soap");
        let server = Arc::new(SoapServer::deploy(
            class,
            &endpoint_addr,
            self.store().clone(),
            &self.interface_server.base_url(),
            self.config.strategy,
        )?);
        self.wire_stale_notify(server.core(), server.publisher());
        obs::registry()
            .counter_with("sde_deploys_total", &[("tech", "soap")])
            .inc();
        obs::trace::event("sde::manager", "deploy", format!("class={name} tech=SOAP"));
        self.servers
            .write()
            .insert(name, ManagedServer::Soap(server.clone()));
        Ok(server)
    }

    /// Deploys `class` as a CORBA server (the "extends `CORBAServer`"
    /// flow, §5.2.1).
    ///
    /// # Errors
    ///
    /// Same as [`SdeManager::deploy_soap`].
    pub fn deploy_corba(&self, class: ClassHandle) -> Result<Arc<CorbaServer>, SdeError> {
        let name = class.name();
        self.check_unmanaged(&name)?;
        self.restore_from_wal(&class);
        let orb_addr = fresh_addr(self.config.transport, "orb");
        let server = Arc::new(CorbaServer::deploy(
            class,
            &orb_addr,
            self.store().clone(),
            &self.interface_server.base_url(),
            self.config.strategy,
        )?);
        self.wire_stale_notify(server.core(), server.publisher());
        obs::registry()
            .counter_with("sde_deploys_total", &[("tech", "corba")])
            .inc();
        obs::trace::event("sde::manager", "deploy", format!("class={name} tech=CORBA"));
        self.servers
            .write()
            .insert(name, ManagedServer::Corba(server.clone()));
        Ok(server)
    }

    fn check_unmanaged(&self, name: &str) -> Result<(), SdeError> {
        if self.servers.read().contains_key(name) {
            return Err(SdeError::AlreadyManaged(name.to_string()));
        }
        Ok(())
    }

    /// §5.7 wiring: Call Handler → SDE Manager → DL Publisher.
    fn wire_stale_notify(
        &self,
        core: &Arc<crate::gateway::GatewayCore>,
        publisher: &Arc<crate::publish::PublisherCore>,
    ) {
        let publisher = Arc::downgrade(publisher);
        let count = Arc::new(AtomicU64::new(0));
        let count_in = count.clone();
        let global = obs::registry().counter("sde_stale_notifications_total");
        core.set_stale_notify(Arc::new(move || {
            count_in.fetch_add(1, Ordering::SeqCst);
            global.inc();
            if let Some(publisher) = publisher.upgrade() {
                publisher.ensure_current();
            }
        }));
        self.stale_counters.write().push(count);
    }

    /// Technologies and names of the managed servers.
    pub fn managed(&self) -> Vec<(String, Technology)> {
        self.servers
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.gateway().technology()))
            .collect()
    }

    /// The published interface document for `class_name` (the §4 "view the
    /// WSDL/CORBA-IDL" affordance of the SDE Manager Interface).
    pub fn interface_document(&self, class_name: &str) -> Option<String> {
        let servers = self.servers.read();
        let entry = servers.get(class_name)?;
        let path = match entry.gateway().technology() {
            Technology::Soap => format!("/{class_name}.wsdl"),
            Technology::Corba => format!("/{class_name}.idl"),
        };
        self.store().get(&path).map(|d| d.content().to_string())
    }

    /// Sets the stable-publication timeout for one server (§4: "the user
    /// can control the publication frequency by specifying a timeout
    /// value").
    ///
    /// # Errors
    ///
    /// Fails if no such server is managed.
    pub fn set_timeout(&self, class_name: &str, timeout: Duration) -> Result<(), SdeError> {
        self.with_gateway(class_name, |gw| {
            gw.publisher()
                .set_strategy(PublicationStrategy::StableTimeout(timeout));
        })
    }

    /// Forces immediate publication for one server (§4: "manually trigger
    /// the publication ... by forcing timer expiration").
    ///
    /// # Errors
    ///
    /// Fails if no such server is managed.
    pub fn force_publish(&self, class_name: &str) -> Result<(), SdeError> {
        self.with_gateway(class_name, |gw| gw.publisher().force_publish())
    }

    fn with_gateway<T>(
        &self,
        class_name: &str,
        f: impl FnOnce(&dyn SdeServerGateway) -> T,
    ) -> Result<T, SdeError> {
        let servers = self.servers.read();
        let entry = servers
            .get(class_name)
            .ok_or_else(|| SdeError::NotManaged(class_name.to_string()))?;
        Ok(f(entry.gateway()))
    }

    /// Retires a managed server, retracting its documents.
    ///
    /// # Errors
    ///
    /// Fails if no such server is managed.
    pub fn undeploy(&self, class_name: &str) -> Result<(), SdeError> {
        let entry = self
            .servers
            .write()
            .remove(class_name)
            .ok_or_else(|| SdeError::NotManaged(class_name.to_string()))?;
        entry.gateway().shutdown();
        obs::trace::event("sde::manager", "undeploy", format!("class={class_name}"));
        Ok(())
    }

    /// Captures a class for migration handoff **without** undeploying
    /// it, so there is never a window where the class exists nowhere.
    /// The gateway retires its live instance first: a call that reaches
    /// it from now on runs nothing ("Server not initialized"), and the
    /// calls already inside get up to `within` to finish — so what is
    /// captured is final. The export carries the dynamic class (whose
    /// interface version rides along, preserving the §6 recency floor),
    /// the live instance with all field state, and the exactly-once
    /// reply cache (a client whose first attempt executed here must get
    /// a replay at the target, not a re-execution).
    /// [`SdeManager::unexport_class`] undoes it.
    ///
    /// # Errors
    ///
    /// Fails if no such server is managed, or a call was still running
    /// after `within` (the gateway then serves as before).
    pub fn export_class(
        &self,
        class_name: &str,
        within: Duration,
    ) -> Result<ClassExport, SdeError> {
        let (core, technology) = self.core_of(class_name)?;
        let instance = core.retire(within)?;
        obs::trace::event(
            "sde::manager",
            "export-class",
            format!("class={class_name} tech={technology}"),
        );
        Ok(ClassExport {
            class: core.class().clone(),
            instance,
            technology,
            replies: core.reply_cache().export_entries(),
        })
    }

    /// Gives an export that was not imported (an aborted migration) back
    /// to the gateway it was taken from, which serves its instance again.
    ///
    /// # Errors
    ///
    /// Fails if no such server is managed.
    pub fn unexport_class(&self, export: &ClassExport) -> Result<(), SdeError> {
        let (core, _) = self.core_of(&export.class.name())?;
        if let Some(instance) = &export.instance {
            core.adopt_instance(instance.clone());
        }
        Ok(())
    }

    /// The class's gateway core, cloned out: `retire` may wait, and must
    /// not hold the map meanwhile.
    fn core_of(&self, class_name: &str) -> Result<(Arc<GatewayCore>, Technology), SdeError> {
        match self.servers.read().get(class_name) {
            Some(ManagedServer::Soap(s)) => Ok((s.core().clone(), Technology::Soap)),
            Some(ManagedServer::Corba(s)) => Ok((s.core().clone(), Technology::Corba)),
            None => Err(SdeError::NotManaged(class_name.to_string())),
        }
    }

    /// Deploys an exported class on this manager — the receiving half of
    /// a migration handoff. The caller must already have appended the
    /// class's version floors to this manager's WAL (deployment applies
    /// them via the usual restart path), so the first publication here
    /// is at `version >= source`, which is what forces stale clients to
    /// reconverge (§5.7). The live instance is adopted rather than
    /// recreated and the reply-cache entries are installed before any
    /// call can reach the new gateway.
    ///
    /// # Errors
    ///
    /// Fails if the class name is already managed here or an endpoint
    /// cannot be bound.
    pub fn import_class(&self, export: &ClassExport) -> Result<(), SdeError> {
        let ClassExport {
            class,
            instance,
            technology,
            replies,
        } = export;
        let name = class.name();
        let core = match technology {
            Technology::Soap => self.deploy_soap(class.clone())?.core().clone(),
            Technology::Corba => self.deploy_corba(class.clone())?.core().clone(),
        };
        // Mirror the source exactly: a class that had no live instance
        // stays inactive at the target too.
        if let Some(instance) = instance {
            core.adopt_instance(instance.clone());
        }
        core.reply_cache().import_entries(replies.clone());
        obs::trace::event(
            "sde::manager",
            "import-class",
            format!("class={name} tech={technology}"),
        );
        Ok(())
    }

    /// Live technology interchange — the §8 future-work feature: rebinds a
    /// running server from SOAP to CORBA (or back) **without recreating
    /// the dynamic class or its live instance**. The existing instance
    /// (with all its field state) is adopted by the new gateway, so
    /// in-memory state survives the switch.
    ///
    /// Returns the technology now in use.
    ///
    /// # Errors
    ///
    /// Fails if no such server is managed or the new endpoint cannot be
    /// bound.
    pub fn switch_technology(&self, class_name: &str) -> Result<Technology, SdeError> {
        let mut servers = self.servers.write();
        let entry = servers
            .remove(class_name)
            .ok_or_else(|| SdeError::NotManaged(class_name.to_string()))?;

        let (class, instance, old_tech): (ClassHandle, Option<Arc<Instance>>, Technology) =
            match &entry {
                ManagedServer::Soap(s) => (s.class().clone(), s.instance(), Technology::Soap),
                ManagedServer::Corba(s) => (s.class().clone(), s.instance(), Technology::Corba),
            };
        entry.gateway().shutdown();

        let new_entry = match old_tech {
            Technology::Soap => {
                let orb_addr = fresh_addr(self.config.transport, "orb");
                let server = Arc::new(CorbaServer::deploy(
                    class,
                    &orb_addr,
                    self.store().clone(),
                    &self.interface_server.base_url(),
                    self.config.strategy,
                )?);
                self.wire_stale_notify(server.core(), server.publisher());
                if let Some(instance) = instance {
                    server.core().adopt_instance(instance);
                }
                ManagedServer::Corba(server)
            }
            Technology::Corba => {
                let endpoint_addr = fresh_addr(self.config.transport, "soap");
                let server = Arc::new(SoapServer::deploy(
                    class,
                    &endpoint_addr,
                    self.store().clone(),
                    &self.interface_server.base_url(),
                    self.config.strategy,
                )?);
                self.wire_stale_notify(server.core(), server.publisher());
                if let Some(instance) = instance {
                    server.core().adopt_instance(instance);
                }
                ManagedServer::Soap(server)
            }
        };
        let new_tech = new_entry.gateway().technology();
        obs::trace::event(
            "sde::manager",
            "switch-technology",
            format!("class={class_name} {old_tech} -> {new_tech}"),
        );
        servers.insert(class_name.to_string(), new_entry);
        Ok(new_tech)
    }

    /// Watches a JPie class registry and automatically deploys every
    /// class that extends the gateway superclasses — the paper's
    /// detection mechanism: "When a user extends the SOAP Server to
    /// create a dynamic class within JPie, an event is generated to
    /// signal the SDE Manager" (§5.1.1), likewise for `CORBAServer`
    /// (§5.2.1). Classes with other (or no) superclasses are ignored.
    ///
    /// Returns a join handle for the watcher thread; it exits when the
    /// registry is dropped.
    pub fn attach_registry(
        self: &Arc<Self>,
        registry: &jpie::ClassRegistry,
    ) -> std::thread::JoinHandle<()> {
        let loads = registry.subscribe();
        let manager = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("sde-registry-watcher".into())
            .spawn(move || {
                while let Ok(event) = loads.recv() {
                    let Some(manager) = manager.upgrade() else {
                        return;
                    };
                    match event.superclass.as_deref() {
                        Some("SOAPServer") => {
                            let _ = manager.deploy_soap(event.class);
                        }
                        Some("CORBAServer") => {
                            let _ = manager.deploy_corba(event.class);
                        }
                        _ => {}
                    }
                }
            })
            .expect("spawn registry watcher")
    }

    /// Looks up a managed SOAP server.
    pub fn soap_server(&self, class_name: &str) -> Option<Arc<SoapServer>> {
        match self.servers.read().get(class_name) {
            Some(ManagedServer::Soap(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Looks up a managed CORBA server.
    pub fn corba_server(&self, class_name: &str) -> Option<Arc<CorbaServer>> {
        match self.servers.read().get(class_name) {
            Some(ManagedServer::Corba(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Shuts down every managed server and the Interface Server.
    pub fn shutdown(&self) {
        let mut servers = self.servers.write();
        for (_, entry) in servers.drain() {
            entry.gateway().shutdown();
        }
        drop(servers);
        self.interface_server.shutdown();
    }
}

impl Drop for SdeManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}
