//! The SDE Manager Interface as an interactive shell.
//!
//! The paper's §4 gives the user a management surface: control the
//! publication timeout, force publication, view the published WSDL /
//! CORBA-IDL, plus (through JPie itself) the live class-editing gestures.
//! This module provides that surface as a line-oriented command
//! interpreter — run it interactively with `cargo run --bin sde-repl`, or
//! drive it from a script (every command reads one line, which is what
//! the integration tests do).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cde::{CallError, ClientEnvironment, DynamicStub};
use jpie::{ClassHandle, MethodBuilder, TypeDesc, Value};
use router::{ClassSpec, HashRing, Router, RouterConfig};
use sde::{SdeConfig, SdeManager, SdeServerGateway, Technology, TransportKind};

/// The interactive session state.
pub struct Repl {
    manager: SdeManager,
    env: ClientEnvironment,
    classes: Vec<ClassHandle>,
    stubs: Vec<(String, Arc<DynamicStub>)>,
    /// The `chaos` command's fault plan under construction; rules
    /// accumulate and the plan is re-installed after every change.
    chaos_seed: u64,
    chaos_rules: Vec<httpd::FaultRule>,
    /// Interface-server address, pinned so `restart` comes back at the
    /// same published authority.
    interface_addr: String,
    /// SDE configuration (including the WAL directory) reused on restart.
    config: SdeConfig,
    /// Set by `crash`: the manager is down and most commands refuse to
    /// run until `restart`.
    down: bool,
    /// Deployments captured at crash time, redeployed by `restart`.
    crashed_servers: Vec<(String, Technology)>,
    /// The `shards` command's demo cluster, built on first use.
    shard_demo: Option<ShardDemo>,
}

/// A live sharded-router fleet the `shards` command drives: ring
/// assignments, health, replication lag, and kill-to-promote failover,
/// all observable from the shell.
struct ShardDemo {
    router: Router,
    wal_root: std::path::PathBuf,
}

impl std::fmt::Debug for Repl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Repl")
            .field("classes", &self.classes.len())
            .field("stubs", &self.stubs.len())
            .finish_non_exhaustive()
    }
}

const HELP: &str = "\
SDE Manager Interface commands:
  new <Class>                              create a dynamic class
  load class <Name> [extends S] { ... }    load a full class from source
  deploy soap|corba <Class>                deploy through SDE (auto-publishes)
  instance <Class>                         create the live instance
  add <Class> <m>(<p>:<ty>,...)-><ty> [distributed]   add a method
  body <Class> <m> <jpie-script...>        replace a body (live)
  rename <Class> <old> <new>               rename a method (live)
  param+ <Class> <m> <p>:<ty>              add a parameter (live)
  remove <Class> <m>                       remove a method (live)
  distributed <Class> <m> on|off           toggle the modifier
  undo <Class> | redo <Class>              walk the edit history
  show <Class>                             view the class source
  state <Class>                            view the live instance's fields
  export <Class>                           end of development: freeze to a static server
  doc <Class>                              view the published WSDL/IDL
  publish <Class>                          force publication now
  timeout <Class> <millis>                 set the stable timeout
  switch <Class>                           live SOAP<->CORBA interchange
  connect <Class>                          build a CDE stub from the docs
  ops <Class>                              show the stub's interface view
  call <Class> <m> [args...]               remote call (1 2L 3.5 true \"s\")
  debugger                                 list caught exceptions
  again <index>                            debugger try-again
  replycache <Class>                       exactly-once reply-cache stats
  crash                                    kill the server process (state lost, WAL kept)
  restart                                  restart at the same authority; WAL replay
                                           floors interface versions at pre-crash
  servers                                  list managed servers
  stats [filter]                           metrics snapshot (Prometheus text format)
  trace [n]                                most recent event-log entries (default 20)
  trace show [id-prefix]                   list tail-sampled traces / render one
                                           as a span waterfall (prefix matches
                                           trace id or call id)
  events [Class]                           the event log's version events
  chaos                                    show the installed fault plan
  chaos off | chaos seed <n>               clear the plan / set the RNG seed
  shards                                   demo router cluster: ring assignments,
                                           shard health, WAL replication lag,
                                           last failover
  shards kill <n>                          kill shard n live; the router promotes
                                           its WAL follower and reports the
                                           detect/replay/republish latencies
  shards call <Class>                      one bump() through the front tier
  shards move <Class> <n>                  planned migration of a class to shard
                                           n: WAL catch-up, bounded drain,
                                           atomic handoff — zero failed calls
  shards drain <n>                         migrate every class off shard n (it
                                           stays up, empty, restartable)
  shards off                               tear the demo cluster down
  chaos <ep> <fault> [p]                   add a rule: <ep> is an address
                                           substring (or 'all'); <fault> is
                                           refuse | delay:<ms> | truncate:<n>
                                           | corrupt:<n> | disconnect:<n>
                                           | blackhole | drop_reply (server-
                                           side: executes, loses the reply);
                                           p defaults to 1.0
  help | quit";

impl Repl {
    /// Creates a session with its own SDE manager.
    ///
    /// # Errors
    ///
    /// Fails if the Interface Server cannot start.
    pub fn new() -> Result<Repl, sde::SdeError> {
        // A pinned interface address plus a WAL directory make the
        // crash/restart commands meaningful: the restarted manager
        // rebinds the same authority and replays the log.
        static SESSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let session = SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let interface_addr = format!("mem://sde-repl-ifc-{}-{session}", std::process::id());
        let config = SdeConfig {
            wal_dir: Some(
                std::env::temp_dir().join(format!("sde-repl-wal-{}-{session}", std::process::id())),
            ),
            ..SdeConfig::default()
        };
        Ok(Repl {
            manager: SdeManager::with_interface_addr(config.clone(), &interface_addr)?,
            env: ClientEnvironment::new(),
            classes: Vec::new(),
            stubs: Vec::new(),
            chaos_seed: 42,
            chaos_rules: Vec::new(),
            interface_addr,
            config,
            down: false,
            crashed_servers: Vec::new(),
            shard_demo: None,
        })
    }

    fn class(&self, name: &str) -> Result<&ClassHandle, String> {
        self.classes
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("no class {name:?} (use: new {name})"))
    }

    fn stub(&self, name: &str) -> Result<&Arc<DynamicStub>, String> {
        self.stubs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| format!("no stub for {name:?} (use: connect {name})"))
    }

    fn publisher_sync(&self, name: &str) {
        if let Some(s) = self.manager.soap_server(name) {
            s.publisher().ensure_current();
        }
        if let Some(s) = self.manager.corba_server(name) {
            s.publisher().ensure_current();
        }
    }

    /// Executes one command line; returns the printable result, or
    /// `None` when the command asks to quit.
    pub fn execute(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Some(String::new());
        }
        let mut parts = line.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        if self.down
            && matches!(
                cmd,
                "deploy"
                    | "instance"
                    | "doc"
                    | "publish"
                    | "timeout"
                    | "switch"
                    | "connect"
                    | "call"
                    | "servers"
                    | "state"
                    | "export"
                    | "replycache"
            )
        {
            return Some("error: server process is down (use: restart)".into());
        }
        let result = match cmd {
            "quit" | "exit" => return None,
            "help" => Ok(HELP.to_string()),
            "new" => self.cmd_new(rest),
            "load" => self.cmd_load(rest),
            "deploy" => self.cmd_deploy(rest),
            "instance" => self.cmd_instance(rest),
            "add" => self.cmd_add(rest),
            "body" => self.cmd_body(rest),
            "rename" => self.cmd_rename(rest),
            "param+" => self.cmd_add_param(rest),
            "remove" => self.cmd_remove(rest),
            "distributed" => self.cmd_distributed(rest),
            "undo" => self.cmd_history(rest, true),
            "redo" => self.cmd_history(rest, false),
            "show" => self.class(rest).map(|c| c.class_source()),
            "state" => self.cmd_state(rest),
            "export" => self.cmd_export(rest),
            "doc" => self
                .manager
                .interface_document(rest)
                .ok_or_else(|| format!("nothing published for {rest:?}")),
            "publish" => self.cmd_publish(rest),
            "timeout" => self.cmd_timeout(rest),
            "switch" => self.cmd_switch(rest),
            "connect" => self.cmd_connect(rest),
            "ops" => self.cmd_ops(rest),
            "call" => self.cmd_call(rest),
            "debugger" => Ok(self.cmd_debugger()),
            "again" => self.cmd_again(rest),
            "replycache" => self.cmd_replycache(rest),
            "crash" => self.cmd_crash(),
            "restart" => self.cmd_restart(),
            "stats" => Ok(cmd_stats(rest)),
            "trace" => cmd_trace(rest),
            "events" => Ok(cmd_events(rest)),
            "chaos" => self.cmd_chaos(rest),
            "shards" => self.cmd_shards(rest),
            "servers" => Ok(self
                .manager
                .managed()
                .iter()
                .map(|(n, t)| format!("{n} [{t}]"))
                .collect::<Vec<_>>()
                .join("\n")),
            other => Err(format!("unknown command {other:?} (try: help)")),
        };
        Some(match result {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        })
    }

    fn cmd_new(&mut self, name: &str) -> Result<String, String> {
        if name.is_empty() {
            return Err("usage: new <Class>".into());
        }
        if self.classes.iter().any(|c| c.name() == name) {
            return Err(format!("class {name:?} already exists"));
        }
        self.classes.push(ClassHandle::new(name));
        Ok(format!("created dynamic class {name}"))
    }

    fn cmd_load(&mut self, src: &str) -> Result<String, String> {
        let class = jpie::parse::parse_class(src).map_err(|e| e.to_string())?;
        let name = class.name();
        if self.classes.iter().any(|c| c.name() == name) {
            return Err(format!("class {name:?} already exists"));
        }
        let summary = format!(
            "loaded {name}: {} field(s), {} method(s) ({} distributed)",
            class.declared_fields().len(),
            class.signatures().len(),
            class.distributed_signatures().len()
        );
        self.classes.push(class);
        Ok(summary)
    }

    fn cmd_deploy(&mut self, rest: &str) -> Result<String, String> {
        let (tech, name) = rest
            .split_once(' ')
            .ok_or("usage: deploy soap|corba <Class>")?;
        let class = self.class(name.trim())?.clone();
        match tech {
            "soap" => {
                let server = self.manager.deploy_soap(class).map_err(|e| e.to_string())?;
                Ok(format!("deployed; WSDL at {}", server.wsdl_url()))
            }
            "corba" => {
                let server = self
                    .manager
                    .deploy_corba(class)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "deployed; IDL at {} / IOR at {}",
                    server.idl_url(),
                    server.ior_url()
                ))
            }
            other => Err(format!("unknown technology {other:?}")),
        }
    }

    fn cmd_instance(&mut self, name: &str) -> Result<String, String> {
        if let Some(s) = self.manager.soap_server(name) {
            s.create_instance().map_err(|e| e.to_string())?;
            return Ok("instance created; call handler active".into());
        }
        if let Some(s) = self.manager.corba_server(name) {
            s.create_instance().map_err(|e| e.to_string())?;
            return Ok("instance created; call handler active".into());
        }
        Err(format!("{name:?} is not deployed"))
    }

    fn cmd_add(&mut self, rest: &str) -> Result<String, String> {
        // add Class m(a:int,b:string)->int [distributed]
        let (class_name, decl) = rest.split_once(' ').ok_or("usage: add <Class> <decl>")?;
        let class = self.class(class_name)?.clone();
        let distributed = decl.trim_end().ends_with("distributed");
        let decl = decl.trim_end().trim_end_matches("distributed").trim();
        let (head, ret) = decl.rsplit_once("->").ok_or("missing -> return type")?;
        let return_ty = parse_type(ret.trim())?;
        let open = head.find('(').ok_or("missing ( in declaration")?;
        let close = head.rfind(')').ok_or("missing ) in declaration")?;
        let method_name = head[..open].trim();
        let mut builder = MethodBuilder::new(method_name, return_ty).distributed(distributed);
        let params_src = head[open + 1..close].trim();
        if !params_src.is_empty() {
            for p in params_src.split(',') {
                let (pname, pty) = p.split_once(':').ok_or("parameter must be name:type")?;
                builder = builder.param(pname.trim(), parse_type(pty.trim())?);
            }
        }
        class.add_method(builder).map_err(|e| e.to_string())?;
        Ok(format!("added {method_name} to {class_name}"))
    }

    fn cmd_body(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.splitn(3, ' ');
        let (class_name, method, src) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        let class = self.class(class_name)?.clone();
        let id = class
            .find_method(method)
            .ok_or_else(|| format!("no method {method:?}"))?;
        class.set_body_source(id, src).map_err(|e| e.to_string())?;
        Ok(format!("body of {method} replaced (live)"))
    }

    fn cmd_rename(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [class_name, old, new] = parts[..] else {
            return Err("usage: rename <Class> <old> <new>".into());
        };
        let class = self.class(class_name)?.clone();
        let id = class
            .find_method(old)
            .ok_or_else(|| format!("no method {old:?}"))?;
        class.rename_method(id, new).map_err(|e| e.to_string())?;
        Ok(format!("renamed {old} -> {new} (call sites updated)"))
    }

    fn cmd_add_param(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [class_name, method, decl] = parts[..] else {
            return Err("usage: param+ <Class> <method> <name>:<type>".into());
        };
        let class = self.class(class_name)?.clone();
        let id = class
            .find_method(method)
            .ok_or_else(|| format!("no method {method:?}"))?;
        let (pname, pty) = decl.split_once(':').ok_or("parameter must be name:type")?;
        class
            .add_param(id, pname, parse_type(pty)?)
            .map_err(|e| e.to_string())?;
        Ok(format!("added parameter {pname} to {method}"))
    }

    fn cmd_remove(&mut self, rest: &str) -> Result<String, String> {
        let (class_name, method) = rest.split_once(' ').ok_or("usage: remove <Class> <m>")?;
        let class = self.class(class_name)?.clone();
        let id = class
            .find_method(method.trim())
            .ok_or_else(|| format!("no method {method:?}"))?;
        class.remove_method(id).map_err(|e| e.to_string())?;
        Ok(format!("removed {method}"))
    }

    fn cmd_distributed(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [class_name, method, state] = parts[..] else {
            return Err("usage: distributed <Class> <m> on|off".into());
        };
        let class = self.class(class_name)?.clone();
        let id = class
            .find_method(method)
            .ok_or_else(|| format!("no method {method:?}"))?;
        class
            .set_distributed(id, state == "on")
            .map_err(|e| e.to_string())?;
        Ok(format!("distributed modifier of {method}: {state}"))
    }

    fn cmd_history(&mut self, name: &str, undo: bool) -> Result<String, String> {
        let class = self.class(name)?.clone();
        if undo {
            class.undo().map_err(|e| e.to_string())?;
            Ok("undone".into())
        } else {
            class.redo().map_err(|e| e.to_string())?;
            Ok("redone".into())
        }
    }

    fn cmd_state(&mut self, name: &str) -> Result<String, String> {
        let instance = self
            .manager
            .soap_server(name)
            .and_then(|s| s.instance())
            .or_else(|| self.manager.corba_server(name).and_then(|s| s.instance()))
            .ok_or_else(|| format!("{name:?} has no live instance"))?;
        let fields = instance.fields_snapshot();
        if fields.is_empty() {
            return Ok("no fields".into());
        }
        Ok(fields
            .iter()
            .map(|(n, v)| format!("{n} = {v}"))
            .collect::<Vec<_>>()
            .join("\n"))
    }

    fn cmd_export(&mut self, name: &str) -> Result<String, String> {
        // §7: convert the dynamic SDE server into a static one. The
        // exported server lives for the rest of the session.
        let class = self.class(name)?.clone();
        let instance = self
            .manager
            .soap_server(name)
            .and_then(|s| s.instance())
            .or_else(|| self.manager.corba_server(name).and_then(|s| s.instance()))
            .ok_or_else(|| format!("{name:?} has no live instance to export"))?;
        let was_corba = self.manager.corba_server(name).is_some();
        self.manager.undeploy(name).map_err(|e| e.to_string())?;
        self.stubs.retain(|(n, _)| n != name);
        if was_corba {
            let server =
                live_rmi_export_corba(&class, &instance, &format!("mem://exported-{name}"))?;
            let ior = server.ior().to_ior_string();
            std::mem::forget(server); // keep serving for the session
            Ok(format!("exported as a static CORBA server; IOR:\n{ior}"))
        } else {
            let server =
                live_rmi_export_soap(&class, &instance, &format!("mem://exported-{name}"))?;
            let endpoint = server.endpoint().to_string();
            std::mem::forget(server);
            Ok(format!("exported as a static SOAP server at {endpoint}"))
        }
    }

    fn cmd_publish(&mut self, name: &str) -> Result<String, String> {
        self.manager
            .force_publish(name)
            .map_err(|e| e.to_string())?;
        self.publisher_sync(name);
        Ok("published".into())
    }

    fn cmd_timeout(&mut self, rest: &str) -> Result<String, String> {
        let (name, millis) = rest.split_once(' ').ok_or("usage: timeout <Class> <ms>")?;
        let millis: u64 = millis.trim().parse().map_err(|_| "bad milliseconds")?;
        self.manager
            .set_timeout(name, Duration::from_millis(millis))
            .map_err(|e| e.to_string())?;
        Ok(format!("stable timeout of {name} set to {millis}ms"))
    }

    fn cmd_switch(&mut self, name: &str) -> Result<String, String> {
        let tech = self
            .manager
            .switch_technology(name)
            .map_err(|e| e.to_string())?;
        self.publisher_sync(name);
        // Old stubs point at the retired endpoint.
        self.stubs.retain(|(n, _)| n != name);
        Ok(format!(
            "now serving {name} over {tech} (stub dropped; reconnect)"
        ))
    }

    fn cmd_connect(&mut self, name: &str) -> Result<String, String> {
        self.publisher_sync(name);
        let stub = if let Some(s) = self.manager.soap_server(name) {
            self.env
                .connect_soap(s.wsdl_url())
                .map_err(|e| e.to_string())?
        } else if let Some(s) = self.manager.corba_server(name) {
            self.env
                .connect_corba(s.idl_url(), s.ior_url())
                .map_err(|e| e.to_string())?
        } else {
            return Err(format!("{name:?} is not deployed"));
        };
        self.stubs.retain(|(n, _)| n != name);
        self.stubs.push((name.to_string(), stub));
        Ok(format!(
            "connected; interface view v{}",
            self.stub(name)?.interface_version()
        ))
    }

    fn cmd_ops(&mut self, name: &str) -> Result<String, String> {
        let stub = self.stub(name)?;
        let mut out = format!("interface view v{}:\n", stub.interface_version());
        for op in stub.operations() {
            let params = op
                .params
                .iter()
                .map(|(n, t)| format!("{t} {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "  {} {}({})", op.return_ty, op.name, params);
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_call(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.splitn(3, ' ');
        let class_name = parts.next().unwrap_or("");
        let method = parts.next().ok_or("usage: call <Class> <m> [args]")?;
        let args = parse_args(parts.next().unwrap_or(""))?;
        let stub = self.stub(class_name)?.clone();
        match self.env.call(&stub, method, &args) {
            Ok(v) => Ok(format!("=> {v}")),
            Err(CallError::StaleMethod { method }) => Ok(format!(
                "Non existent Method: {method} — interface refreshed to v{} \
                 (see: ops {class_name} / debugger)",
                stub.interface_version()
            )),
            Err(other) => Err(other.to_string()),
        }
    }

    fn cmd_debugger(&self) -> String {
        let entries = self.env.debugger().entries();
        if entries.is_empty() {
            return "debugger: no caught exceptions".into();
        }
        entries
            .iter()
            .enumerate()
            .map(|(i, e)| format!("[{i}] {} in {:?}", e.message, e.method))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn cmd_again(&mut self, rest: &str) -> Result<String, String> {
        let index: usize = rest.trim().parse().map_err(|_| "usage: again <index>")?;
        match self.env.debugger().try_again(index) {
            Ok(v) => Ok(format!("=> {v}")),
            Err(e) => Err(e.to_string()),
        }
    }

    fn cmd_replycache(&mut self, name: &str) -> Result<String, String> {
        let stats = if let Some(s) = self.manager.soap_server(name) {
            s.reply_cache_stats()
        } else if let Some(s) = self.manager.corba_server(name) {
            s.reply_cache_stats()
        } else {
            return Err(format!("{name:?} is not deployed"));
        };
        Ok(format!(
            "reply cache of {name}: {} entrie(s), {} in flight, {} stored, {} duplicate(s) suppressed, {} evicted",
            stats.entries, stats.in_flight, stats.stores, stats.hits, stats.evictions
        ))
    }

    /// Simulates a server-process crash: every managed server (and the
    /// in-memory document store) is torn down without warning. The WAL
    /// on disk survives — that is the point.
    fn cmd_crash(&mut self) -> Result<String, String> {
        if self.down {
            return Err("already crashed (use: restart)".into());
        }
        self.crashed_servers = self.manager.managed();
        self.manager.shutdown();
        self.stubs.clear();
        self.down = true;
        Ok(format!(
            "server process crashed; {} deployment(s) lost, WAL retained",
            self.crashed_servers.len()
        ))
    }

    /// Restarts the manager at the same interface authority. WAL replay
    /// floors every redeployed class's interface version at its
    /// pre-crash value, so clients holding old documents reconverge.
    fn cmd_restart(&mut self) -> Result<String, String> {
        if !self.down {
            return Err("nothing to restart (use: crash first)".into());
        }
        self.manager = SdeManager::with_interface_addr(self.config.clone(), &self.interface_addr)
            .map_err(|e| e.to_string())?;
        self.down = false;
        let mut out = format!("restarted at {}", self.interface_addr);
        for (name, tech) in std::mem::take(&mut self.crashed_servers) {
            let class = self.class(&name)?.clone();
            match tech {
                Technology::Soap => {
                    self.manager.deploy_soap(class).map_err(|e| e.to_string())?;
                }
                Technology::Corba => {
                    self.manager
                        .deploy_corba(class)
                        .map_err(|e| e.to_string())?;
                }
            }
            self.publisher_sync(&name);
            let version = self.class(&name)?.interface_version();
            let _ = write!(
                out,
                "\n  {name} [{tech}] redeployed at interface v{version}"
            );
        }
        out.push_str("\n(instances are not restored: use `instance <Class>`)");
        Ok(out)
    }
}

impl Repl {
    /// The `chaos` command: program the transport fault injector.
    fn cmd_chaos(&mut self, rest: &str) -> Result<String, String> {
        const USAGE: &str = "usage: chaos [off | seed <n> | <endpoint> \
                             refuse|delay:<ms>|truncate:<n>|corrupt:<n>|disconnect:<n>|blackhole\
                             |drop_reply [p]]";
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            [] | ["status"] => Ok(httpd::fault::status()),
            ["off"] => {
                httpd::fault::clear();
                self.chaos_rules.clear();
                Ok("chaos off".into())
            }
            ["seed", n] => {
                self.chaos_seed = n.parse().map_err(|_| format!("bad seed {n:?}"))?;
                self.install_chaos();
                Ok(format!("chaos seed {}", self.chaos_seed))
            }
            [endpoint, fault] | [endpoint, fault, _] => {
                let p = match parts.get(2) {
                    Some(raw) => {
                        let p: f64 = raw
                            .parse()
                            .map_err(|_| format!("bad probability {raw:?}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("probability {p} outside [0, 1]"));
                        }
                        p
                    }
                    None => 1.0,
                };
                // 'all' (or '*') matches every endpoint.
                let ep = match *endpoint {
                    "all" | "*" => "",
                    other => other,
                };
                let (kind, param) = match fault.split_once(':') {
                    Some((k, v)) => {
                        let v = v
                            .parse::<u64>()
                            .map_err(|_| format!("bad {k} value {v:?}"))?;
                        (k, Some(v))
                    }
                    None => (*fault, None),
                };
                let rule = match (kind, param) {
                    ("refuse", None) => httpd::FaultRule::refuse(ep, p),
                    ("delay", Some(ms)) => httpd::FaultRule::delay(
                        ep,
                        p,
                        Duration::from_millis(ms),
                        Duration::from_millis(ms / 2),
                    ),
                    ("truncate", Some(n)) => httpd::FaultRule::truncate(ep, p, n as usize),
                    ("corrupt", Some(n)) => httpd::FaultRule::corrupt(ep, p, n as usize),
                    ("disconnect", Some(n)) => httpd::FaultRule::disconnect(ep, p, n as usize),
                    ("blackhole", None) => httpd::FaultRule::blackhole(ep, p),
                    // drop_reply only makes sense where the server has
                    // already executed — an accept-side rule.
                    ("drop_reply", None) => httpd::FaultRule::drop_reply(ep, p).on_accept(),
                    _ => return Err(USAGE.into()),
                };
                self.chaos_rules.push(rule);
                self.install_chaos();
                Ok(httpd::fault::status())
            }
            _ => Err(USAGE.into()),
        }
    }

    fn install_chaos(&self) {
        let mut plan = httpd::FaultPlan::seeded(self.chaos_seed);
        for rule in &self.chaos_rules {
            plan = plan.rule(rule.clone());
        }
        plan.install();
    }
}

impl Repl {
    /// The `shards` command: drive a live sharded-router demo fleet.
    fn cmd_shards(&mut self, rest: &str) -> Result<String, String> {
        const USAGE: &str =
            "usage: shards [kill <n> | call <Class> | move <Class> <n> | drain <n> | off]";
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            [] | ["status"] => {
                self.ensure_shard_demo()?;
                Ok(self.render_shards())
            }
            ["move", class, n] => {
                self.ensure_shard_demo()?;
                let n: usize = n.parse().map_err(|_| format!("bad shard {n:?}"))?;
                let demo = self.shard_demo.as_ref().expect("demo just ensured");
                if !demo.router.assignments().iter().any(|(c, _)| c == class) {
                    return Err(format!("no demo class {class:?} (see: shards)"));
                }
                let ev = demo
                    .router
                    .move_class(class, n)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "{class} migrated shard {} -> {} with zero failed calls\n  \
                     catchup {:.1}ms + drain {:.1}ms + handoff {:.1}ms = {:.1}ms \
                     ({} calls parked, {} WAL records streamed)\n\n{}",
                    ev.from_shard,
                    ev.to_shard,
                    ev.catchup_ms,
                    ev.drain_ms,
                    ev.handoff_ms,
                    ev.total_ms,
                    ev.parked_calls,
                    ev.wal_records,
                    self.render_shards()
                ))
            }
            ["drain", n] => {
                self.ensure_shard_demo()?;
                let n: usize = n.parse().map_err(|_| format!("bad shard {n:?}"))?;
                let demo = self.shard_demo.as_ref().expect("demo just ensured");
                let events = demo.router.drain_shard(n).map_err(|e| e.to_string())?;
                let mut out = format!("shard {n} drained: {} class(es) migrated\n", events.len());
                for ev in &events {
                    let _ = writeln!(
                        out,
                        "  {} -> shard {} in {:.1}ms (drain {:.1}ms)",
                        ev.class, ev.to_shard, ev.total_ms, ev.drain_ms
                    );
                }
                out.push('\n');
                out.push_str(&self.render_shards());
                Ok(out)
            }
            ["kill", n] => {
                self.ensure_shard_demo()?;
                let n: usize = n.parse().map_err(|_| format!("bad shard {n:?}"))?;
                let demo = self.shard_demo.as_ref().expect("demo just ensured");
                let status = demo.router.status();
                let Some(shard) = status.get(n) else {
                    return Err(format!("no shard {n} (fleet has {})", status.len()));
                };
                if !shard.alive {
                    return Err(format!("shard {n} is already down"));
                }
                let before = shard.generation;
                demo.router.kill_shard(n);
                // The router's probes detect the death on its own — no
                // client traffic needed — so just wait for the event.
                let deadline = Instant::now() + Duration::from_secs(10);
                let promoted = loop {
                    match demo.router.last_failover() {
                        Some(ev) if ev.shard == n && ev.generation > before => break ev,
                        _ if Instant::now() >= deadline => {
                            return Err("failover did not complete within 10s".into());
                        }
                        _ => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                demo.router.wait_converged(Duration::from_secs(5));
                Ok(format!(
                    "shard {n} killed; WAL follower promoted to generation {}\n  \
                     detect {:.1}ms + replay {:.1}ms + republish {:.1}ms = {:.1}ms\n  \
                     republished: {}\n\n{}",
                    promoted.generation,
                    promoted.detect_ms,
                    promoted.replay_ms,
                    promoted.republish_ms,
                    promoted.total_ms,
                    promoted.classes.join(", "),
                    self.render_shards()
                ))
            }
            ["call", class] => {
                self.ensure_shard_demo()?;
                let demo = self.shard_demo.as_ref().expect("demo just ensured");
                if !demo.router.assignments().iter().any(|(c, _)| c == class) {
                    return Err(format!("no demo class {class:?} (see: shards)"));
                }
                let stub = self
                    .env
                    .connect_soap(&demo.router.wsdl_url(class))
                    .map_err(|e| e.to_string())?;
                let value = self
                    .env
                    .call(&stub, "bump", &[])
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "{class}.bump() => {value} (via front tier, shard {})",
                    demo.router.shard_of(class)
                ))
            }
            ["off"] => match self.shard_demo.take() {
                Some(demo) => {
                    demo.router.shutdown();
                    let _ = std::fs::remove_dir_all(&demo.wal_root);
                    Ok("shard demo stopped".into())
                }
                None => Err("no shard demo running (use: shards)".into()),
            },
            _ => Err(USAGE.into()),
        }
    }

    /// Builds the demo fleet on first use: 3 shards, one counter class
    /// homed on each, WAL replication on, mem transport.
    fn ensure_shard_demo(&mut self) -> Result<(), String> {
        if self.shard_demo.is_some() {
            return Ok(());
        }
        static DEMO: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let demo = DEMO.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tag = format!("repl-{}-{demo}", std::process::id());
        let wal_root = std::env::temp_dir().join(format!("sde-repl-shards-{tag}"));
        let _ = std::fs::remove_dir_all(&wal_root);
        let cfg = RouterConfig::new(3, TransportKind::Mem, &wal_root, &tag);
        // Scan names until the ring homes one class on every shard, so
        // the demo visibly exercises the whole fleet.
        let ring = HashRing::new(cfg.shards, cfg.vnodes);
        let mut covered = vec![false; cfg.shards];
        let mut specs = Vec::new();
        for i in 0.. {
            let name = format!("Counter{i}");
            let shard = ring.shard_for(&name);
            if !covered[shard] {
                covered[shard] = true;
                specs.push(ClassSpec::soap(
                    name.clone(),
                    format!(
                        "class {name} {{ field int n; distributed int bump() {{ \
                         this.n = this.n + 1; return this.n; }} }}"
                    ),
                ));
            }
            if covered.iter().all(|&c| c) {
                break;
            }
        }
        let router = Router::start(cfg, specs).map_err(|e| e.to_string())?;
        if !router.wait_converged(Duration::from_secs(10)) {
            router.shutdown();
            return Err("demo fleet failed to converge".into());
        }
        self.shard_demo = Some(ShardDemo { router, wal_root });
        Ok(())
    }

    fn render_shards(&self) -> String {
        let demo = self.shard_demo.as_ref().expect("render with demo running");
        let mut out = format!("front: {}\nring assignments:\n", demo.router.front_url());
        let mut assignments = demo.router.assignments();
        assignments.sort();
        for (class, shard) in assignments {
            let _ = writeln!(out, "  {class} -> shard {shard}");
        }
        out.push_str("shard  gen  state  wal leader/follower  lag  replication  classes\n");
        for s in demo.router.status() {
            let _ = writeln!(
                out,
                "  {:<4} {:<4} {:<6} {:>10}/{:<8} {:>3}  {:<11}  {}",
                s.id,
                s.generation,
                if s.alive { "up" } else { "down" },
                s.leader_records,
                s.follower_records,
                s.lag_records,
                if s.follower_connected {
                    "connected"
                } else {
                    "detached"
                },
                s.classes.join(", ")
            );
        }
        match demo.router.last_failover() {
            Some(ev) => {
                let _ = write!(
                    out,
                    "last failover: shard {} -> generation {} in {:.1}ms \
                     (detect {:.1} + replay {:.1} + republish {:.1})",
                    ev.shard,
                    ev.generation,
                    ev.total_ms,
                    ev.detect_ms,
                    ev.replay_ms,
                    ev.republish_ms
                );
            }
            None => out.push_str("last failover: none"),
        }
        if let Some(ev) = demo.router.last_migration() {
            let _ = write!(
                out,
                "\nlast migration: {} shard {} -> {} in {:.1}ms \
                 (catchup {:.1} + drain {:.1} + handoff {:.1})",
                ev.class,
                ev.from_shard,
                ev.to_shard,
                ev.total_ms,
                ev.catchup_ms,
                ev.drain_ms,
                ev.handoff_ms
            );
        }
        out
    }
}

fn cmd_stats(filter: &str) -> String {
    // The reactor summary line rides along with the metric dump (and
    // through the filter) so `stats reactor` answers "how loaded is
    // the event loop" in one line.
    let mut text = obs::registry().snapshot().render_prometheus();
    text.push_str(&reactor::metrics_summary());
    text.push('\n');
    if filter.is_empty() {
        return text.trim_end().to_string();
    }
    let matching: Vec<&str> = text.lines().filter(|l| l.contains(filter)).collect();
    if matching.is_empty() {
        format!("stats: no metrics matching {filter:?}")
    } else {
        matching.join("\n")
    }
}

fn cmd_trace(rest: &str) -> Result<String, String> {
    // `trace show <prefix>` renders a retained distributed trace as a
    // waterfall; `trace show` lists what the tail sampler kept.
    if let Some(arg) = rest.strip_prefix("show") {
        let prefix = arg.trim();
        if prefix.is_empty() {
            let retained = obs::tracectx::store().retained();
            if retained.is_empty() {
                return Ok("trace show: no retained traces (tail sampler kept none yet)".into());
            }
            return Ok(retained
                .iter()
                .map(|t| {
                    format!(
                        "{} root={} spans={} {}us [{}]",
                        t.trace,
                        t.root().map(|s| s.name).unwrap_or("?"),
                        t.spans.len(),
                        t.root_duration_us,
                        t.reason
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"));
        }
        return match obs::tracectx::store().find(prefix) {
            Some(t) => Ok(obs::tracectx::render_waterfall(&t)),
            None => Err(format!("trace show: no retained trace matches {prefix:?}")),
        };
    }
    let n = if rest.is_empty() {
        20
    } else {
        rest.parse()
            .map_err(|_| format!("usage: trace [n] | trace show [prefix] (got {rest:?})"))?
    };
    let events = obs::events::recent(n);
    if events.is_empty() {
        return Ok("trace: no events recorded".into());
    }
    Ok(events
        .iter()
        .map(|e| {
            let detail = if e.is_version_event() {
                format!("class={} version={}", e.class, e.version)
            } else {
                e.detail.clone()
            };
            format!(
                "[{}] +{:>8}us {} {} {detail}",
                e.seq, e.at_micros, e.target, e.name
            )
        })
        .collect::<Vec<_>>()
        .join("\n"))
}

fn cmd_events(rest: &str) -> String {
    let class = (!rest.is_empty()).then_some(rest);
    let events = obs::events::query(class);
    if events.is_empty() {
        return "events: no version events recorded".into();
    }
    events
        .iter()
        .map(|e| {
            format!(
                "[{}] +{:>8}us {} {} v{}",
                e.seq, e.at_micros, e.class, e.name, e.version
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn live_rmi_export_soap(
    class: &ClassHandle,
    instance: &Arc<jpie::Instance>,
    addr: &str,
) -> Result<baseline::StaticSoapServer, String> {
    baseline::export_soap(class, instance, addr).map_err(|e| e.to_string())
}

fn live_rmi_export_corba(
    class: &ClassHandle,
    instance: &Arc<jpie::Instance>,
    addr: &str,
) -> Result<baseline::StaticCorbaServer, String> {
    baseline::export_corba(class, instance, addr).map_err(|e| e.to_string())
}

fn parse_type(s: &str) -> Result<TypeDesc, String> {
    Ok(match s {
        "void" => TypeDesc::Void,
        "boolean" | "bool" => TypeDesc::Bool,
        "int" => TypeDesc::Int,
        "long" => TypeDesc::Long,
        "float" => TypeDesc::Float,
        "double" => TypeDesc::Double,
        "char" => TypeDesc::Char,
        "string" => TypeDesc::Str,
        other => {
            if let Some(inner) = other.strip_prefix("seq<").and_then(|r| r.strip_suffix('>')) {
                TypeDesc::Seq(Box::new(parse_type(inner)?))
            } else if other.chars().next().is_some_and(|c| c.is_uppercase()) {
                TypeDesc::Named(other.to_string())
            } else {
                return Err(format!("unknown type {other:?}"));
            }
        }
    })
}

fn parse_args(s: &str) -> Result<Vec<Value>, String> {
    let mut args = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        if rest.starts_with('"') {
            let end = rest[1..].find('"').ok_or("unterminated string argument")?;
            args.push(Value::Str(rest[1..1 + end].to_string()));
            rest = rest[2 + end..].trim_start();
            continue;
        }
        let token_end = rest.find(' ').unwrap_or(rest.len());
        let token = &rest[..token_end];
        rest = rest[token_end..].trim_start();
        let value = if token == "true" {
            Value::Bool(true)
        } else if token == "false" {
            Value::Bool(false)
        } else if token == "null" {
            Value::Null
        } else if let Some(num) = token.strip_suffix('L') {
            Value::Long(num.parse().map_err(|_| format!("bad long {token:?}"))?)
        } else if token.contains('.') {
            Value::Double(token.parse().map_err(|_| format!("bad double {token:?}"))?)
        } else {
            Value::Int(
                token
                    .parse()
                    .map_err(|_| format!("bad argument {token:?}"))?,
            )
        };
        args.push(value);
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(repl: &mut Repl, cmd: &str) -> String {
        repl.execute(cmd).expect("not quit")
    }

    #[test]
    fn full_session_drives_the_whole_stack() {
        let mut repl = Repl::new().unwrap();
        run(&mut repl, "new Calc");
        assert!(run(&mut repl, "add Calc add(a:int,b:int)->int distributed").contains("added"));
        run(&mut repl, "body Calc add return a + b;");
        assert!(run(&mut repl, "deploy soap Calc").contains("WSDL"));
        assert!(run(&mut repl, "instance Calc").contains("active"));
        run(&mut repl, "publish Calc");
        assert!(run(&mut repl, "connect Calc").contains("interface view"));
        assert_eq!(run(&mut repl, "call Calc add 20 22"), "=> 42");

        // Live rename: the next call shows the protocol in action.
        run(&mut repl, "rename Calc add plus");
        let out = run(&mut repl, "call Calc add 1 2");
        assert!(out.contains("Non existent Method"), "{out}");
        assert!(run(&mut repl, "ops Calc").contains("plus"));
        assert_eq!(run(&mut repl, "call Calc plus 1 2"), "=> 3");

        // Debugger has the failed call; undo on the server side, then
        // try-again succeeds.
        assert!(run(&mut repl, "debugger").contains("[0]"));
        run(&mut repl, "undo Calc");
        run(&mut repl, "publish Calc");
        assert_eq!(run(&mut repl, "again 0"), "=> 3");

        // Manager surface.
        assert!(run(&mut repl, "servers").contains("Calc [SOAP]"));
        assert!(run(&mut repl, "doc Calc").contains("wsdl:definitions"));
        assert!(run(&mut repl, "show Calc").contains("class Calc"));
        assert!(run(&mut repl, "timeout Calc 50").contains("50ms"));

        // Technology interchange.
        assert!(run(&mut repl, "switch Calc").contains("CORBA"));
        run(&mut repl, "connect Calc");
        assert_eq!(run(&mut repl, "call Calc add 4 4"), "=> 8");

        assert!(repl.execute("quit").is_none());
    }

    #[test]
    fn shards_command_drives_a_live_failover() {
        let mut repl = Repl::new().unwrap();
        let out = run(&mut repl, "shards");
        assert!(out.contains("ring assignments:"), "{out}");
        assert!(out.contains("-> shard 2"), "{out}");
        assert!(out.contains("last failover: none"), "{out}");

        let called = run(&mut repl, "shards call Counter0");
        assert!(called.contains("Counter0.bump() => 1"), "{called}");

        let killed = run(&mut repl, "shards kill 1");
        assert!(killed.contains("WAL follower promoted"), "{killed}");
        assert!(killed.contains("last failover: shard 1"), "{killed}");
        // The fleet is whole again: the promoted shard reports up.
        let demo = repl.shard_demo.as_ref().unwrap();
        assert!(demo.router.status().iter().all(|s| s.alive));

        assert!(run(&mut repl, "shards kill 9").contains("error"));
        assert_eq!(run(&mut repl, "shards off"), "shard demo stopped");
        assert!(run(&mut repl, "shards off").contains("error"));
    }

    #[test]
    fn shards_command_drives_a_planned_migration_and_drain() {
        let mut repl = Repl::new().unwrap();
        let out = run(&mut repl, "shards");
        assert!(out.contains("ring assignments:"), "{out}");

        // Counter0's home shard, read from the live assignment table.
        let home = repl
            .shard_demo
            .as_ref()
            .unwrap()
            .router
            .shard_of("Counter0");
        let target = (home + 1) % 3;

        assert!(run(&mut repl, "shards call Counter0").contains("=> 1"));
        let moved = run(&mut repl, &format!("shards move Counter0 {target}"));
        assert!(moved.contains("zero failed calls"), "{moved}");
        assert!(moved.contains("last migration: Counter0"), "{moved}");
        // The instance moved with its state: the counter keeps going.
        let called = run(&mut repl, "shards call Counter0");
        assert!(called.contains("=> 2"), "state must survive: {called}");
        assert!(called.contains(&format!("shard {target}")), "{called}");

        assert!(run(&mut repl, "shards move Counter0 9").contains("error"));
        assert!(run(&mut repl, "shards move Nope 0").contains("error"));

        // Drain the target: every class it serves (including the one we
        // just moved there) migrates off, and the shard reports empty.
        let drained = run(&mut repl, &format!("shards drain {target}"));
        assert!(drained.contains("drained"), "{drained}");
        let demo = repl.shard_demo.as_ref().unwrap();
        assert!(demo.router.status()[target].classes.is_empty());
        assert!(demo.router.status().iter().all(|s| s.alive));
        let called = run(&mut repl, "shards call Counter0");
        assert!(called.contains("=> 3"), "{called}");

        assert_eq!(run(&mut repl, "shards off"), "shard demo stopped");
    }

    #[test]
    fn chaos_command_programs_the_injector() {
        let mut repl = Repl::new().unwrap();
        assert!(run(&mut repl, "chaos seed 7").contains("seed 7"));
        let out = run(&mut repl, "chaos mem://chaos-cmd-test refuse 0.5");
        assert!(out.contains("refuse"), "{out}");
        assert!(out.contains("seed=7"), "{out}");
        let out = run(&mut repl, "chaos mem://chaos-cmd-test delay:5 0.25");
        assert!(out.contains("delay"), "{out}");
        assert!(httpd::fault::active());
        // Bad input is rejected without changing the plan.
        assert!(run(&mut repl, "chaos mem://x explode").contains("error"));
        assert!(run(&mut repl, "chaos mem://x refuse 1.5").contains("error"));
        assert_eq!(run(&mut repl, "chaos off"), "chaos off");
        assert!(!httpd::fault::active());
    }

    #[test]
    fn state_and_export_commands() {
        let mut repl = Repl::new().unwrap();
        run(
            &mut repl,
            "load class Counter { field int n; distributed int bump() { this.n = this.n + 1; return this.n; } }",
        );
        run(&mut repl, "deploy soap Counter");
        run(&mut repl, "instance Counter");
        run(&mut repl, "publish Counter");
        run(&mut repl, "connect Counter");
        assert_eq!(run(&mut repl, "call Counter bump"), "=> 1");
        assert_eq!(run(&mut repl, "call Counter bump"), "=> 2");
        assert_eq!(run(&mut repl, "state Counter"), "n = 2");

        let out = run(&mut repl, "export Counter");
        assert!(out.contains("static SOAP server at"), "{out}");
        // After export the class is no longer managed by SDE.
        assert!(run(&mut repl, "doc Counter").contains("error"));
        // The exported static endpoint serves with the preserved state.
        let endpoint = out.rsplit(' ').next().unwrap().trim();
        let ops_class = repl.class("Counter").unwrap().clone();
        let wsdl = soap::WsdlDocument::from_signatures(
            "Counter",
            endpoint.to_string(),
            &ops_class.distributed_signatures(),
            0,
        );
        let mut client = baseline::StaticSoapClient::from_wsdl(wsdl).unwrap();
        assert_eq!(client.call("bump", &[]).unwrap(), Value::Int(3));
    }

    #[test]
    fn load_full_class_from_source() {
        let mut repl = Repl::new().unwrap();
        let out = run(
            &mut repl,
            "load class Echo extends SOAPServer { distributed string echo(string s) { return s; } }",
        );
        assert!(out.contains("loaded Echo"), "{out}");
        run(&mut repl, "deploy soap Echo");
        run(&mut repl, "instance Echo");
        run(&mut repl, "publish Echo");
        run(&mut repl, "connect Echo");
        assert_eq!(run(&mut repl, "call Echo echo \"ping\""), "=> ping");
        assert!(run(&mut repl, "load class Echo { }").contains("error"));
        assert!(run(&mut repl, "load not a class").contains("error"));
    }

    #[test]
    fn observability_commands() {
        let mut repl = Repl::new().unwrap();
        run(&mut repl, "new ReplObs");
        run(&mut repl, "add ReplObs add(a:int,b:int)->int distributed");
        run(&mut repl, "body ReplObs add return a + b;");
        run(&mut repl, "deploy soap ReplObs");
        run(&mut repl, "instance ReplObs");
        run(&mut repl, "publish ReplObs");
        run(&mut repl, "connect ReplObs");
        assert_eq!(run(&mut repl, "call ReplObs add 20 22"), "=> 42");

        // stats: full snapshot and filtered view both show the counter
        // the call above incremented.
        let stats = run(&mut repl, "stats");
        assert!(stats.contains("sde_requests_total"), "{stats}");
        // The event-loop summary line rides along with the dump and
        // survives filtering.
        assert!(stats.contains("reactor: shards="), "{stats}");
        let reactor_line = run(&mut repl, "stats reactor:");
        assert!(reactor_line.contains("fds_registered="), "{reactor_line}");
        assert!(reactor_line.contains("timers_armed="), "{reactor_line}");
        let filtered = run(&mut repl, "stats ReplObs");
        assert!(
            filtered.contains("sde_requests_total{class=\"ReplObs\"}"),
            "{filtered}"
        );
        assert!(run(&mut repl, "stats no_such_metric_xyz").contains("no metrics"));

        // events: the publication shows up in the version-event log,
        // both unfiltered and filtered by class.
        let events = run(&mut repl, "events ReplObs");
        assert!(events.contains("publication"), "{events}");
        assert!(events.contains("ReplObs"), "{events}");

        // trace: deploy/publish left events in the ring.
        let trace = run(&mut repl, "trace 50");
        assert!(
            trace.contains("deploy") || trace.contains("publish"),
            "{trace}"
        );
        assert!(run(&mut repl, "trace nonsense").contains("error"));
    }

    #[test]
    fn crash_restart_replays_the_wal() {
        let mut repl = Repl::new().unwrap();
        run(&mut repl, "new Phoenix");
        run(&mut repl, "add Phoenix add(a:int,b:int)->int distributed");
        run(&mut repl, "body Phoenix add return a + b;");
        run(&mut repl, "deploy soap Phoenix");
        run(&mut repl, "instance Phoenix");
        run(&mut repl, "publish Phoenix");
        // Drive the version up, publishing (and WAL-logging) each step.
        run(&mut repl, "add Phoenix sub(a:int,b:int)->int distributed");
        run(&mut repl, "publish Phoenix");
        let pre_crash = repl.class("Phoenix").unwrap().interface_version();
        assert!(pre_crash > 0);

        let out = run(&mut repl, "crash");
        assert!(out.contains("1 deployment(s) lost"), "{out}");
        assert!(run(&mut repl, "crash").contains("error"));
        assert!(run(&mut repl, "call Phoenix add 1 2").contains("down"));
        assert!(run(&mut repl, "servers").contains("down"));

        let out = run(&mut repl, "restart");
        assert!(out.contains("Phoenix [SOAP] redeployed"), "{out}");
        let v: u64 = out
            .split("interface v")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(v >= pre_crash, "restored v{v} < pre-crash v{pre_crash}");
        assert!(run(&mut repl, "restart").contains("error"));

        // The full stack works again after restart.
        let out = run(&mut repl, "instance Phoenix");
        assert!(out.contains("active"), "{out}");
        let out = run(&mut repl, "connect Phoenix");
        assert!(out.contains("interface view"), "{out}");
        assert_eq!(run(&mut repl, "call Phoenix add 20 22"), "=> 42");
        let out = run(&mut repl, "replycache Phoenix");
        assert!(out.contains("1 stored"), "{out}");
        assert!(run(&mut repl, "replycache Ghost").contains("error"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut repl = Repl::new().unwrap();
        assert!(run(&mut repl, "bogus").contains("unknown command"));
        assert!(run(&mut repl, "deploy soap Missing").contains("error"));
        assert!(run(&mut repl, "call Missing m").contains("error"));
        run(&mut repl, "new X");
        assert!(run(&mut repl, "new X").contains("error"));
        assert!(run(&mut repl, "add X broken").contains("error"));
        assert!(run(&mut repl, "").is_empty());
        assert!(run(&mut repl, "# comment").is_empty());
    }

    #[test]
    fn arg_parsing() {
        assert_eq!(
            parse_args("1 2L 3.5 true \"two words\" null").unwrap(),
            vec![
                Value::Int(1),
                Value::Long(2),
                Value::Double(3.5),
                Value::Bool(true),
                Value::Str("two words".into()),
                Value::Null,
            ]
        );
        assert!(parse_args("\"unterminated").is_err());
        assert!(parse_args("12x").is_err());
    }

    #[test]
    fn type_parsing() {
        assert_eq!(parse_type("int").unwrap(), TypeDesc::Int);
        assert_eq!(
            parse_type("seq<string>").unwrap(),
            TypeDesc::Seq(Box::new(TypeDesc::Str))
        );
        assert_eq!(
            parse_type("Message").unwrap(),
            TypeDesc::Named("Message".into())
        );
        assert!(parse_type("wat").is_err());
    }
}
