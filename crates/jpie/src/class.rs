//! Dynamic classes: run-time-mutable method signatures and bodies.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use obs::sync::{Mutex, RwLock, RwLockWriteGuard};

use crate::edit::{EditLabel, EditRecord};
use crate::error::JpieError;
use crate::event::{ClassEvent, ClassObserver};
use crate::expr::{block_any, walk_block_mut, Block, Expr, Stmt};
use crate::instance::{Fields, Instance};
use crate::lower::{lower_methods, LoweredMethod};
use crate::value::{TypeDesc, Value};

/// Stable identity of a dynamic method. Survives renames and signature
/// changes; invalidated by removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub(crate) u64);

impl MethodId {
    /// Reconstructs an id from its raw value (for tooling and tests that
    /// build [`SignatureView`]s by hand; ids minted by a class are only
    /// meaningful for that class).
    pub fn from_raw(raw: u64) -> MethodId {
        MethodId(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Stable identity of a method parameter. Survives renames and reorders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) u64);

impl ParamId {
    /// Reconstructs an id from its raw value (see [`MethodId::from_raw`]).
    pub fn from_raw(raw: u64) -> ParamId {
        ParamId(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Stable identity.
    pub id: ParamId,
    /// Current name.
    pub name: String,
    /// Declared type.
    pub ty: TypeDesc,
}

/// A method signature as stored inside a dynamic class.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSignature {
    /// Current method name.
    pub name: String,
    /// Formal parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type.
    pub return_ty: TypeDesc,
    /// The paper's `distributed` modifier: whether this method belongs to
    /// the published server interface (§4, §5.5).
    pub distributed: bool,
}

/// Native method body signature: receives the instance fields and the
/// argument values in declaration order.
pub type NativeFn =
    dyn Fn(&mut Fields, &[Value]) -> Result<Value, JpieError> + Send + Sync + 'static;

/// A method body.
#[derive(Clone)]
pub(crate) enum MethodBody {
    /// Interpreted statements — fully live-editable. Shared, copy-on-write:
    /// the undo history holds every version of a body it has seen, and an
    /// edit copies only the bodies it changes.
    Interpreted(Arc<Block>),
    /// A compiled Rust closure (JPie's interop with compiled classes).
    Native(Arc<NativeFn>),
    /// Declared but not yet implemented; invoking raises an exception.
    Empty,
}

impl fmt::Debug for MethodBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodBody::Interpreted(b) => write!(f, "Interpreted({} stmts)", b.len()),
            MethodBody::Native(_) => write!(f, "Native(..)"),
            MethodBody::Empty => write!(f, "Empty"),
        }
    }
}

/// A method inside a dynamic class.
#[derive(Debug, Clone)]
pub(crate) struct DynamicMethod {
    pub(crate) id: MethodId,
    pub(crate) signature: MethodSignature,
    pub(crate) body: MethodBody,
}

/// An immutable snapshot of a class's method table — signatures and
/// *lowered* bodies (see [`crate::lower`]) — plus the declared fields,
/// shared by `Arc` between the class and its live [`Instance`].
///
/// Snapshots are rebuilt lazily after an edit (see
/// [`ClassHandle::edit_epoch`]); between edits every invocation reuses
/// the same allocation, so the steady-state dispatch path never clones
/// the method `Vec` and never resolves a name.
#[derive(Debug)]
pub(crate) struct MethodTable {
    pub(crate) methods: Vec<LoweredMethod>,
    pub(crate) fields: Vec<(String, TypeDesc)>,
}

/// A read-only snapshot of one method's signature, as returned by
/// [`ClassHandle::signature`].
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureView {
    /// Stable method identity.
    pub id: MethodId,
    /// Current name.
    pub name: String,
    /// `(id, name, type)` for each parameter, in order.
    pub params: Vec<(ParamId, String, TypeDesc)>,
    /// Return type.
    pub return_ty: TypeDesc,
    /// Whether the method carries the `distributed` modifier.
    pub distributed: bool,
}

impl SignatureView {
    fn of(m: &DynamicMethod) -> SignatureView {
        SignatureView {
            id: m.id,
            name: m.signature.name.clone(),
            params: m
                .signature
                .params
                .iter()
                .map(|p| (p.id, p.name.clone(), p.ty.clone()))
                .collect(),
            return_ty: m.signature.return_ty.clone(),
            distributed: m.signature.distributed,
        }
    }
}

/// Builder for a new dynamic method (see [`ClassHandle::add_method`]).
///
/// # Examples
///
/// ```
/// use jpie::{MethodBuilder, TypeDesc};
/// use jpie::expr::Expr;
///
/// let b = MethodBuilder::new("inc", TypeDesc::Int)
///     .param("x", TypeDesc::Int)
///     .distributed(true)
///     .body_expr(Expr::param("x") + Expr::lit(1));
/// ```
#[derive(Debug)]
pub struct MethodBuilder {
    name: String,
    params: Vec<(String, TypeDesc)>,
    return_ty: TypeDesc,
    distributed: bool,
    body: MethodBody,
}

impl MethodBuilder {
    /// Starts a builder for a method `name` returning `return_ty`.
    pub fn new(name: impl Into<String>, return_ty: TypeDesc) -> MethodBuilder {
        MethodBuilder {
            name: name.into(),
            params: Vec::new(),
            return_ty,
            distributed: false,
            body: MethodBody::Empty,
        }
    }

    /// Appends a parameter.
    pub fn param(mut self, name: impl Into<String>, ty: TypeDesc) -> MethodBuilder {
        self.params.push((name.into(), ty));
        self
    }

    /// Sets the `distributed` modifier (default false).
    pub fn distributed(mut self, distributed: bool) -> MethodBuilder {
        self.distributed = distributed;
        self
    }

    /// Sets an interpreted body consisting of a single `return expr`.
    pub fn body_expr(self, expr: Expr) -> MethodBuilder {
        self.body_block(vec![Stmt::Return(Some(expr))])
    }

    /// Sets an interpreted body of statements.
    pub fn body_block(mut self, block: Block) -> MethodBuilder {
        self.body = MethodBody::Interpreted(Arc::new(block));
        self
    }

    /// Sets an interpreted body from JPie-script source (see
    /// [`crate::parse`]). Bare identifiers matching this builder's
    /// parameter names become parameter references.
    ///
    /// # Errors
    ///
    /// Fails on a syntax error in `src`.
    pub fn body_source(self, src: &str) -> Result<MethodBuilder, JpieError> {
        let mut block = crate::parse::parse_block(src)?;
        let names: Vec<String> = self.params.iter().map(|(n, _)| n.clone()).collect();
        crate::parse::resolve_params(&mut block, &names);
        Ok(self.body_block(block))
    }

    /// Sets a native (compiled) body.
    pub fn body_native<F>(mut self, f: F) -> MethodBuilder
    where
        F: Fn(&mut Fields, &[Value]) -> Result<Value, JpieError> + Send + Sync + 'static,
    {
        self.body = MethodBody::Native(Arc::new(f));
        self
    }
}

#[derive(Debug)]
pub(crate) struct ClassInner {
    pub(crate) name: String,
    pub(crate) superclass: Option<String>,
    pub(crate) methods: Vec<DynamicMethod>,
    pub(crate) fields: Vec<(String, TypeDesc)>,
    next_id: u64,
    interface_version: u64,
    undo_stack: Vec<EditRecord>,
    redo_stack: Vec<EditRecord>,
    observers: Observers,
    instantiated: bool,
    /// The live instance's field store (if any), so field renames can
    /// migrate stored values instead of resetting them.
    live_fields: Option<Weak<Mutex<Fields>>>,
    /// Lazily rebuilt `Arc` snapshot of the method table + declared
    /// fields; cleared by every edit (including undo/redo).
    table_cache: Option<Arc<MethodTable>>,
    /// Lazily rebuilt snapshot of the distributed signatures, shared
    /// with the RMI gateway's dispatch cache.
    dist_cache: Option<Arc<Vec<SignatureView>>>,
}

/// The observer list, shared so an edit can call it after releasing the
/// class lock without copying it.
#[derive(Clone)]
struct Observers(Arc<[Arc<ClassObserver>]>);

impl fmt::Debug for Observers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} observers", self.0.len())
    }
}

impl ClassInner {
    fn method(&self, id: MethodId) -> Result<&DynamicMethod, JpieError> {
        self.methods
            .iter()
            .find(|m| m.id == id)
            .ok_or_else(|| JpieError::StaleMethodId(id.to_string()))
    }

    fn method_mut(&mut self, id: MethodId) -> Result<&mut DynamicMethod, JpieError> {
        self.methods
            .iter_mut()
            .find(|m| m.id == id)
            .ok_or_else(|| JpieError::StaleMethodId(id.to_string()))
    }

    /// Fingerprint of the *distributed* interface: the published WSDL/IDL
    /// must change exactly when this does.
    fn interface_fingerprint(&self) -> Vec<(String, Vec<String>, String)> {
        let mut fp: Vec<_> = self
            .methods
            .iter()
            .filter(|m| m.signature.distributed)
            .map(|m| {
                (
                    m.signature.name.clone(),
                    m.signature
                        .params
                        .iter()
                        .map(|p| format!("{}:{}", p.name, p.ty))
                        .collect(),
                    m.signature.return_ty.to_string(),
                )
            })
            .collect();
        fp.sort();
        fp
    }

    /// Applies `f` to every expression of every interpreted body that
    /// contains an expression `affected` holds for; the other bodies stay
    /// shared with the undo history.
    fn rewrite_bodies(&mut self, affected: &dyn Fn(&Expr) -> bool, f: &mut dyn FnMut(&mut Expr)) {
        for m in &mut self.methods {
            if let MethodBody::Interpreted(block) = &mut m.body {
                rewrite_shared(block, affected, f);
            }
        }
    }

    /// [`ClassInner::rewrite_bodies`] for the call-site rewrites, which
    /// all concern the calls of one method.
    fn rewrite_calls_of(&mut self, method: &str, f: &mut dyn FnMut(&mut Expr)) {
        self.rewrite_bodies(
            &|e| matches!(e, Expr::SelfCall { method: m, .. } if m == method),
            f,
        );
    }
}

/// A handle to a dynamic class.
///
/// Handles are cheaply cloneable and thread-safe; all mutations are
/// serialized by an internal lock and take effect immediately for every
/// holder — including live [`Instance`]s, which resolve methods at each
/// invocation (JPie's "changes take effect immediately upon existing
/// instances of the class").
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Clone)]
pub struct ClassHandle {
    inner: Arc<RwLock<ClassInner>>,
    /// Monotonic edit epoch; see [`ClassHandle::edit_epoch`].
    epoch: Arc<AtomicU64>,
}

impl ClassHandle {
    /// Creates a new, empty dynamic class.
    pub fn new(name: impl Into<String>) -> ClassHandle {
        Self::build(name.into(), None)
    }

    /// Creates a dynamic class extending `superclass` — the paper's
    /// gesture for creating a server class ("the JPie-SDE user extends a
    /// provided class, called SOAPServer", §4). Register the class with a
    /// [`crate::ClassRegistry`] watched by an SDE manager to trigger
    /// automatic deployment.
    pub fn with_superclass(name: impl Into<String>, superclass: impl Into<String>) -> ClassHandle {
        Self::build(name.into(), Some(superclass.into()))
    }

    /// The declared superclass name, if any.
    pub fn superclass(&self) -> Option<String> {
        self.inner.read().superclass.clone()
    }

    fn build(name: String, superclass: Option<String>) -> ClassHandle {
        ClassHandle {
            inner: Arc::new(RwLock::new(ClassInner {
                name,
                superclass,
                methods: Vec::new(),
                fields: Vec::new(),
                next_id: 1,
                interface_version: 0,
                undo_stack: Vec::new(),
                redo_stack: Vec::new(),
                observers: Observers(Arc::new([])),
                instantiated: false,
                live_fields: None,
                table_cache: None,
                dist_cache: None,
            })),
            epoch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The class name.
    pub fn name(&self) -> String {
        self.inner.read().name.clone()
    }

    /// Current interface version. Advances exactly when the distributed
    /// interface changes (§5.6: these are the changes that require a new
    /// WSDL/CORBA-IDL publication).
    pub fn interface_version(&self) -> u64 {
        self.inner.read().interface_version
    }

    /// Floors the interface version at `version` (no-op when the class
    /// is already past it). Used by crash recovery: a restarted server
    /// replays its publication log and resumes *at or above* the last
    /// version it durably published, so clients holding pre-crash
    /// documents never observe the version moving backwards.
    pub fn restore_version_floor(&self, version: u64) {
        let mut inner = self.inner.write();
        if inner.interface_version < version {
            inner.interface_version = version;
        }
    }

    /// Registers `observer` for change events. Every mutation — including
    /// [`ClassHandle::undo`] / [`ClassHandle::redo`] — calls it once, on
    /// the editing thread, after the class lock is released (so it may
    /// read the class), before the edit returns.
    pub fn observe(&self, observer: Arc<ClassObserver>) {
        let mut inner = self.inner.write();
        let mut observers = inner.observers.0.to_vec();
        observers.push(observer);
        inner.observers = Observers(observers.into());
    }

    /// Removes an observer [`ClassHandle::observe`] registered.
    pub fn unobserve(&self, observer: &Arc<ClassObserver>) {
        let mut inner = self.inner.write();
        let observers: Vec<_> = inner
            .observers
            .0
            .iter()
            .filter(|o| !Arc::ptr_eq(o, observer))
            .cloned()
            .collect();
        inner.observers = Observers(observers.into());
    }

    /// Number of edits available to undo / redo.
    pub fn history_depth(&self) -> (usize, usize) {
        let inner = self.inner.read();
        (inner.undo_stack.len(), inner.redo_stack.len())
    }

    // -- mutation helpers ---------------------------------------------------

    /// Runs `op` as one undoable edit: snapshots state, applies, records,
    /// fires an event.
    fn mutate<T>(
        &self,
        label: EditLabel,
        op: impl FnOnce(&mut ClassInner) -> Result<T, JpieError>,
    ) -> Result<T, JpieError> {
        let mut inner = self.inner.write();
        // Invalidate the dispatch snapshots up front (covers partial
        // mutations on the error path too). The bump happens while the
        // write lock is held, so a reader that sees the new epoch and
        // takes the class lock observes the edit, and a reader inside
        // the read lock sees a stable epoch.
        self.invalidate_snapshots(&mut inner);
        let before_methods = inner.methods.clone();
        let before_fields = inner.fields.clone();
        let before_fp = inner.interface_fingerprint();
        let out = op(&mut inner)?;
        let distributed_change = inner.interface_fingerprint() != before_fp;
        if distributed_change {
            inner.interface_version += 1;
        }
        obs::registry().counter("jpie_edits_total").inc();
        if distributed_change {
            obs::registry().counter("jpie_interface_edits_total").inc();
        }
        let after_methods = inner.methods.clone();
        let after_fields = inner.fields.clone();
        inner.undo_stack.push(EditRecord {
            label,
            before_methods,
            before_fields,
            after_methods,
            after_fields,
        });
        inner.redo_stack.clear();
        let event = ClassEvent {
            interface_version: inner.interface_version,
            distributed_change,
        };
        Self::notify(inner, event);
        Ok(out)
    }

    fn notify(inner: RwLockWriteGuard<'_, ClassInner>, event: ClassEvent) {
        let observers = inner.observers.clone();
        drop(inner);
        for observer in observers.0.iter() {
            observer(&event);
        }
    }

    /// Clears the cached snapshots and bumps the edit epoch. Must be
    /// called with the class write lock held.
    fn invalidate_snapshots(&self, inner: &mut ClassInner) {
        inner.table_cache = None;
        inner.dist_cache = None;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    // -- structural edits ---------------------------------------------------

    /// Adds a method built with [`MethodBuilder`] and returns its stable
    /// id.
    ///
    /// # Errors
    ///
    /// Fails if another method already has the same name, or a parameter
    /// name repeats.
    pub fn add_method(&self, builder: MethodBuilder) -> Result<MethodId, JpieError> {
        self.mutate(EditLabel::AddMethod(builder.name.clone()), move |inner| {
            validate_ident(&builder.name)?;
            if inner
                .methods
                .iter()
                .any(|m| m.signature.name == builder.name)
            {
                return Err(JpieError::Invalid(format!(
                    "duplicate method name {:?}",
                    builder.name
                )));
            }
            let mut params = Vec::new();
            for (name, ty) in builder.params {
                validate_ident(&name)?;
                if params.iter().any(|p: &Param| p.name == name) {
                    return Err(JpieError::Invalid(format!(
                        "duplicate parameter name {name:?}"
                    )));
                }
                let id = ParamId(inner.next_id);
                inner.next_id += 1;
                params.push(Param { id, name, ty });
            }
            let id = MethodId(inner.next_id);
            inner.next_id += 1;
            inner.methods.push(DynamicMethod {
                id,
                signature: MethodSignature {
                    name: builder.name,
                    params,
                    return_ty: builder.return_ty,
                    distributed: builder.distributed,
                },
                body: builder.body,
            });
            Ok(id)
        })
    }

    /// Removes a method. Call sites in other interpreted bodies are left
    /// in place and will raise `NoSuchMethod` if executed — exactly the
    /// stale-method condition the RMI layer reports to clients.
    ///
    /// # Errors
    ///
    /// Fails if `id` does not name a current method.
    pub fn remove_method(&self, id: MethodId) -> Result<(), JpieError> {
        self.mutate(EditLabel::RemoveMethod(id), |inner| {
            inner.method(id)?;
            inner.methods.retain(|m| m.id != id);
            Ok(())
        })
    }

    /// Renames a method, rewriting every call site in interpreted bodies
    /// (JPie's consistency of declaration and use, §2.3).
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale, the name is invalid, or the name collides.
    pub fn rename_method(&self, id: MethodId, new_name: &str) -> Result<(), JpieError> {
        let new_name = new_name.to_string();
        self.mutate(EditLabel::RenameMethod(id), move |inner| {
            validate_ident(&new_name)?;
            if inner
                .methods
                .iter()
                .any(|m| m.id != id && m.signature.name == new_name)
            {
                return Err(JpieError::Invalid(format!(
                    "duplicate method name {new_name:?}"
                )));
            }
            let old = inner.method(id)?.signature.name.clone();
            inner.method_mut(id)?.signature.name = new_name.clone();
            inner.rewrite_calls_of(&old, &mut |e| {
                e.rename_method_uses(&old, &new_name);
            });
            Ok(())
        })
    }

    /// Toggles the `distributed` modifier — the paper's gesture for adding
    /// a method to or removing it from the published server interface (§4).
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn set_distributed(&self, id: MethodId, distributed: bool) -> Result<(), JpieError> {
        self.mutate(EditLabel::SetDistributed(id, distributed), move |inner| {
            inner.method_mut(id)?.signature.distributed = distributed;
            Ok(())
        })
    }

    /// Changes the return type.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn set_return_type(&self, id: MethodId, ty: TypeDesc) -> Result<(), JpieError> {
        self.mutate(EditLabel::SetReturnType(id), move |inner| {
            inner.method_mut(id)?.signature.return_ty = ty;
            Ok(())
        })
    }

    /// Appends a parameter. Every existing call site of the method gains a
    /// default-valued argument for it, so the program stays consistent.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale, the name is invalid or duplicated, or `ty`
    /// is `void`.
    pub fn add_param(&self, id: MethodId, name: &str, ty: TypeDesc) -> Result<ParamId, JpieError> {
        let name = name.to_string();
        self.mutate(EditLabel::AddParam(id, name.clone()), move |inner| {
            validate_ident(&name)?;
            if ty == TypeDesc::Void {
                return Err(JpieError::Invalid("void parameter".into()));
            }
            let method_name = inner.method(id)?.signature.name.clone();
            if inner
                .method(id)?
                .signature
                .params
                .iter()
                .any(|p| p.name == name)
            {
                return Err(JpieError::Invalid(format!(
                    "duplicate parameter name {name:?}"
                )));
            }
            let pid = ParamId(inner.next_id);
            inner.next_id += 1;
            let default = ty.default_value();
            inner.method_mut(id)?.signature.params.push(Param {
                id: pid,
                name: name.clone(),
                ty,
            });
            inner.rewrite_calls_of(&method_name, &mut |e| {
                e.add_param_uses(&method_name, &name, &default);
            });
            Ok(pid)
        })
    }

    /// Removes a parameter; call sites lose the corresponding argument.
    ///
    /// # Errors
    ///
    /// Fails if `id` or `pid` is stale.
    pub fn remove_param(&self, id: MethodId, pid: ParamId) -> Result<(), JpieError> {
        self.mutate(EditLabel::RemoveParam(id, pid), move |inner| {
            let method_name = inner.method(id)?.signature.name.clone();
            let param_name = inner
                .method(id)?
                .signature
                .params
                .iter()
                .find(|p| p.id == pid)
                .map(|p| p.name.clone())
                .ok_or_else(|| JpieError::Invalid(format!("no parameter {pid}")))?;
            inner
                .method_mut(id)?
                .signature
                .params
                .retain(|p| p.id != pid);
            inner.rewrite_calls_of(&method_name, &mut |e| {
                e.remove_param_uses(&method_name, &param_name);
            });
            Ok(())
        })
    }

    /// Renames a parameter, rewriting references inside the method's own
    /// body and named arguments at every call site.
    ///
    /// # Errors
    ///
    /// Fails if `id`/`pid` is stale or the new name is invalid/duplicated.
    pub fn rename_param(
        &self,
        id: MethodId,
        pid: ParamId,
        new_name: &str,
    ) -> Result<(), JpieError> {
        let new_name = new_name.to_string();
        self.mutate(EditLabel::RenameParam(id, pid), move |inner| {
            validate_ident(&new_name)?;
            let method_name = inner.method(id)?.signature.name.clone();
            let sig = &inner.method(id)?.signature;
            if sig.params.iter().any(|p| p.id != pid && p.name == new_name) {
                return Err(JpieError::Invalid(format!(
                    "duplicate parameter name {new_name:?}"
                )));
            }
            let old = sig
                .params
                .iter()
                .find(|p| p.id == pid)
                .map(|p| p.name.clone())
                .ok_or_else(|| JpieError::Invalid(format!("no parameter {pid}")))?;
            for p in &mut inner.method_mut(id)?.signature.params {
                if p.id == pid {
                    p.name = new_name.clone();
                }
            }
            // References inside the renamed method's own body.
            if let MethodBody::Interpreted(block) = &mut inner.method_mut(id)?.body {
                rewrite_shared(
                    block,
                    &|e| matches!(e, Expr::Param(n) if *n == old),
                    &mut |e| {
                        if let Expr::Param(n) = e {
                            if *n == old {
                                *n = new_name.clone();
                            }
                        }
                    },
                );
            }
            // Named arguments at every call site.
            inner.rewrite_calls_of(&method_name, &mut |e| {
                e.rename_param_uses(&method_name, &old, &new_name);
            });
            Ok(())
        })
    }

    /// Reorders the parameter list. Call sites are unaffected because
    /// arguments are named, which is exactly JPie's consistency guarantee
    /// for formal-parameter reorders (§2.3).
    ///
    /// # Errors
    ///
    /// Fails unless `order` is a permutation of the current parameter ids.
    pub fn reorder_params(&self, id: MethodId, order: &[ParamId]) -> Result<(), JpieError> {
        let order = order.to_vec();
        self.mutate(EditLabel::ReorderParams(id), move |inner| {
            let params = &inner.method(id)?.signature.params;
            if order.len() != params.len()
                || !order.iter().all(|pid| params.iter().any(|p| p.id == *pid))
            {
                return Err(JpieError::Invalid(
                    "order is not a permutation of the parameter ids".into(),
                ));
            }
            let mut reordered = Vec::with_capacity(order.len());
            for pid in &order {
                let p = params
                    .iter()
                    .find(|p| p.id == *pid)
                    .expect("validated above")
                    .clone();
                reordered.push(p);
            }
            inner.method_mut(id)?.signature.params = reordered;
            Ok(())
        })
    }

    /// Replaces the body with a single `return expr`.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn set_body_expr(&self, id: MethodId, expr: Expr) -> Result<(), JpieError> {
        self.set_body_block(id, vec![Stmt::Return(Some(expr))])
    }

    /// Replaces the body from JPie-script source (see [`crate::parse`]);
    /// bare identifiers matching the method's current parameter names
    /// become parameter references.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale or `src` has a syntax error.
    pub fn set_body_source(&self, id: MethodId, src: &str) -> Result<(), JpieError> {
        let mut block = crate::parse::parse_block(src)?;
        let names: Vec<String> = self
            .signature(id)?
            .params
            .into_iter()
            .map(|(_, n, _)| n)
            .collect();
        crate::parse::resolve_params(&mut block, &names);
        self.set_body_block(id, block)
    }

    /// Renders an interpreted method body back to JPie-script source (the
    /// "view the program" affordance of a live environment). Returns
    /// `None` for native or empty bodies.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn method_source(&self, id: MethodId) -> Result<Option<String>, JpieError> {
        let inner = self.inner.read();
        let method = inner.method(id)?;
        Ok(match &method.body {
            MethodBody::Interpreted(block) => Some(crate::parse::block_to_source(block)),
            _ => None,
        })
    }

    /// Renders the whole class — fields, signatures, bodies — as JPie
    /// script (the "visual representation of class definitions" surface,
    /// textually). Native bodies render as `/* native */`.
    pub fn class_source(&self) -> String {
        let inner = self.inner.read();
        let mut out = match &inner.superclass {
            Some(superclass) => format!("class {} extends {} {{\n", inner.name, superclass),
            None => format!("class {} {{\n", inner.name),
        };
        for (name, ty) in &inner.fields {
            out.push_str(&format!(
                "  field {} {name};\n",
                crate::parse::type_source(ty)
            ));
        }
        if !inner.fields.is_empty() && !inner.methods.is_empty() {
            out.push('\n');
        }
        for m in &inner.methods {
            let sig = &m.signature;
            let params = sig
                .params
                .iter()
                .map(|p| format!("{} {}", crate::parse::type_source(&p.ty), p.name))
                .collect::<Vec<_>>()
                .join(", ");
            let modifier = if sig.distributed { "distributed " } else { "" };
            out.push_str(&format!(
                "  {modifier}{} {}({}) {{\n",
                crate::parse::type_source(&sig.return_ty),
                sig.name,
                params
            ));
            match &m.body {
                MethodBody::Interpreted(block) => {
                    for line in crate::parse::block_to_source(block).lines() {
                        out.push_str("    ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                MethodBody::Native(_) => out.push_str("    /* native */\n"),
                MethodBody::Empty => out.push_str("    /* empty */\n"),
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// Replaces the body with an interpreted statement block.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn set_body_block(&self, id: MethodId, block: Block) -> Result<(), JpieError> {
        self.mutate(EditLabel::SetBody(id), move |inner| {
            inner.method_mut(id)?.body = MethodBody::Interpreted(Arc::new(block));
            Ok(())
        })
    }

    /// Replaces the body with a native closure.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn set_body_native<F>(&self, id: MethodId, f: F) -> Result<(), JpieError>
    where
        F: Fn(&mut Fields, &[Value]) -> Result<Value, JpieError> + Send + Sync + 'static,
    {
        self.mutate(EditLabel::SetBody(id), move |inner| {
            inner.method_mut(id)?.body = MethodBody::Native(Arc::new(f));
            Ok(())
        })
    }

    /// Declares an instance field. Live instances gain it immediately with
    /// the type's default value.
    ///
    /// # Errors
    ///
    /// Fails on an invalid or duplicate name, or a `void` type.
    pub fn add_field(&self, name: &str, ty: TypeDesc) -> Result<(), JpieError> {
        let name = name.to_string();
        self.mutate(EditLabel::AddField(name.clone()), move |inner| {
            validate_ident(&name)?;
            if ty == TypeDesc::Void {
                return Err(JpieError::Invalid("void field".into()));
            }
            if inner.fields.iter().any(|(n, _)| *n == name) {
                return Err(JpieError::Invalid(format!("duplicate field {name:?}")));
            }
            inner.fields.push((name, ty));
            Ok(())
        })
    }

    /// Renames an instance field, rewriting every read (`this.old`) and
    /// write (`this.old = ...`) in interpreted bodies — declaration/use
    /// consistency for fields.
    ///
    /// # Errors
    ///
    /// Fails if the field does not exist or the new name is
    /// invalid/duplicated.
    pub fn rename_field(&self, old: &str, new: &str) -> Result<(), JpieError> {
        let old = old.to_string();
        let new = new.to_string();
        self.mutate(EditLabel::RenameField(old.clone()), move |inner| {
            validate_ident(&new)?;
            if !inner.fields.iter().any(|(n, _)| *n == old) {
                return Err(JpieError::NoSuchField(old.clone()));
            }
            if inner.fields.iter().any(|(n, _)| *n == new) {
                return Err(JpieError::Invalid(format!("duplicate field {new:?}")));
            }
            for (n, _) in &mut inner.fields {
                if *n == old {
                    *n = new.clone();
                }
            }
            // Field reads inside expressions.
            inner.rewrite_bodies(&|e| matches!(e, Expr::FieldRef(n) if *n == old), &mut |e| {
                if let Expr::FieldRef(n) = e {
                    if *n == old {
                        *n = new.clone();
                    }
                }
            });
            // Field writes are statements, not expressions: walk the
            // statement tree of every interpreted body that has one.
            for m in &mut inner.methods {
                if let MethodBody::Interpreted(block) = &mut m.body {
                    if sets_field(block, &old) {
                        rename_setfield_targets(Arc::make_mut(block), &old, &new);
                    }
                }
            }
            // Migrate the live instance's stored value.
            if let Some(store) = inner.live_fields.as_ref().and_then(Weak::upgrade) {
                store.lock().rename(&old, &new);
            }
            Ok(())
        })
    }

    /// Removes an instance field.
    ///
    /// # Errors
    ///
    /// Fails if the field does not exist.
    pub fn remove_field(&self, name: &str) -> Result<(), JpieError> {
        let name = name.to_string();
        self.mutate(EditLabel::RemoveField(name.clone()), move |inner| {
            let before = inner.fields.len();
            inner.fields.retain(|(n, _)| *n != name);
            if inner.fields.len() == before {
                return Err(JpieError::NoSuchField(name.clone()));
            }
            Ok(())
        })
    }

    // -- undo / redo ---------------------------------------------------------

    /// Undoes the most recent edit.
    ///
    /// # Errors
    ///
    /// Fails if there is nothing to undo.
    pub fn undo(&self) -> Result<(), JpieError> {
        self.step_history(true)
    }

    /// Re-applies the most recently undone edit.
    ///
    /// # Errors
    ///
    /// Fails if there is nothing to redo.
    pub fn redo(&self) -> Result<(), JpieError> {
        self.step_history(false)
    }

    fn step_history(&self, undo: bool) -> Result<(), JpieError> {
        let mut inner = self.inner.write();
        self.invalidate_snapshots(&mut inner);
        let record = if undo {
            inner.undo_stack.pop()
        } else {
            inner.redo_stack.pop()
        }
        .ok_or(JpieError::NothingToUndo)?;
        let before_fp = inner.interface_fingerprint();
        if undo {
            inner.methods = record.before_methods.clone();
            inner.fields = record.before_fields.clone();
            inner.redo_stack.push(record);
        } else {
            inner.methods = record.after_methods.clone();
            inner.fields = record.after_fields.clone();
            inner.undo_stack.push(record);
        }
        let distributed_change = inner.interface_fingerprint() != before_fp;
        if distributed_change {
            inner.interface_version += 1;
        }
        let event = ClassEvent {
            interface_version: inner.interface_version,
            distributed_change,
        };
        Self::notify(inner, event);
        Ok(())
    }

    // -- inspection -----------------------------------------------------------

    /// Signature snapshot of one method.
    ///
    /// # Errors
    ///
    /// Fails if `id` is stale.
    pub fn signature(&self, id: MethodId) -> Result<SignatureView, JpieError> {
        Ok(SignatureView::of(self.inner.read().method(id)?))
    }

    /// Signature snapshots of all methods, in declaration order.
    pub fn signatures(&self) -> Vec<SignatureView> {
        self.inner
            .read()
            .methods
            .iter()
            .map(SignatureView::of)
            .collect()
    }

    /// Signature snapshots of the distributed methods only — the published
    /// server interface.
    pub fn distributed_signatures(&self) -> Vec<SignatureView> {
        (*self.distributed_signatures_shared().1).clone()
    }

    /// Monotonic edit epoch: bumped by every mutation, including
    /// undo/redo. Callers cache [`Arc`] snapshots keyed by this value; a
    /// `Relaxed` load suffices for the check because the epoch only
    /// advances while the class write lock is held — a reader that
    /// observes a new epoch and refreshes through the class lock
    /// synchronizes with the edit, and a same-thread edit is always
    /// observed by program order.
    pub fn edit_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The current `(epoch, method table)` snapshot. Rebuilds the shared
    /// table only after an edit; between edits the same `Arc` is
    /// returned, so the invoke hot path never clones the method `Vec`.
    pub(crate) fn method_table(&self) -> (u64, Arc<MethodTable>) {
        {
            let inner = self.inner.read();
            if let Some(t) = &inner.table_cache {
                // Epoch read under the read lock: bumps require the
                // write lock, so this pairs with the cached table.
                return (self.epoch.load(Ordering::Relaxed), t.clone());
            }
        }
        let mut inner = self.inner.write();
        let table = match &inner.table_cache {
            Some(t) => t.clone(),
            None => {
                obs::registry().counter("jpie_table_rebuilds_total").inc();
                // Lowered here, under the class lock that already
                // serialises rebuilds: once per edit epoch, however many
                // callers race to the first call after the edit.
                let t = Arc::new(MethodTable {
                    methods: lower_methods(&inner.methods),
                    fields: inner.fields.clone(),
                });
                inner.table_cache = Some(t.clone());
                t
            }
        };
        (self.epoch.load(Ordering::Relaxed), table)
    }

    /// The source form of the methods, for the differential oracle.
    #[cfg(test)]
    pub(crate) fn source_methods(&self) -> Vec<DynamicMethod> {
        self.inner.read().methods.clone()
    }

    /// The current `(epoch, distributed signatures)` snapshot, shared
    /// with callers (the RMI gateway caches it keyed by the epoch so
    /// name→method resolution does not clone signatures per call).
    pub fn distributed_signatures_shared(&self) -> (u64, Arc<Vec<SignatureView>>) {
        let (epoch, _, sigs) = self.distributed_snapshot();
        (epoch, sigs)
    }

    /// The interface version and the distributed signatures it numbers,
    /// read under one lock: a WSDL/IDL generator publishes them together,
    /// so an edit between two reads would label old signatures with the
    /// new version.
    pub fn distributed_interface(&self) -> (u64, Arc<Vec<SignatureView>>) {
        let (_, version, sigs) = self.distributed_snapshot();
        (version, sigs)
    }

    /// `(epoch, interface version, distributed signatures)`, all read
    /// under one lock.
    fn distributed_snapshot(&self) -> (u64, u64, Arc<Vec<SignatureView>>) {
        {
            let inner = self.inner.read();
            if let Some(s) = &inner.dist_cache {
                let epoch = self.epoch.load(Ordering::Relaxed);
                return (epoch, inner.interface_version, s.clone());
            }
        }
        let mut inner = self.inner.write();
        let sigs = match &inner.dist_cache {
            Some(s) => s.clone(),
            None => {
                let s: Arc<Vec<SignatureView>> = Arc::new(
                    inner
                        .methods
                        .iter()
                        .filter(|m| m.signature.distributed)
                        .map(SignatureView::of)
                        .collect(),
                );
                inner.dist_cache = Some(s.clone());
                s
            }
        };
        let epoch = self.epoch.load(Ordering::Relaxed);
        (epoch, inner.interface_version, sigs)
    }

    /// Finds a method id by current name.
    pub fn find_method(&self, name: &str) -> Option<MethodId> {
        self.inner
            .read()
            .methods
            .iter()
            .find(|m| m.signature.name == name)
            .map(|m| m.id)
    }

    /// Declared instance fields.
    pub fn declared_fields(&self) -> Vec<(String, TypeDesc)> {
        self.inner.read().fields.clone()
    }

    // -- instantiation ---------------------------------------------------------

    /// Creates the live instance of this class.
    ///
    /// # Errors
    ///
    /// Per the paper (§5.4) only a single instance of each server class may
    /// exist at a time; a second call fails with
    /// [`JpieError::AlreadyInstantiated`] until the first instance is
    /// dropped.
    pub fn instantiate(&self) -> Result<Instance, JpieError> {
        let mut inner = self.inner.write();
        if inner.instantiated {
            return Err(JpieError::AlreadyInstantiated(inner.name.clone()));
        }
        inner.instantiated = true;
        let fields: HashMap<String, Value> = inner
            .fields
            .iter()
            .map(|(n, t)| (n.clone(), t.default_value()))
            .collect();
        let store = Arc::new(Mutex::new(Fields::from_map(fields)));
        inner.live_fields = Some(Arc::downgrade(&store));
        drop(inner);
        Ok(Instance::with_store(self.clone(), store))
    }

    pub(crate) fn release_instance(&self) {
        let mut inner = self.inner.write();
        inner.instantiated = false;
        inner.live_fields = None;
    }
}

/// Applies `f` to every expression of `block` if `affected` holds for one
/// of them; a block the rewrite would not change is left shared, not
/// copied.
fn rewrite_shared(
    block: &mut Arc<Block>,
    affected: &dyn Fn(&Expr) -> bool,
    f: &mut dyn FnMut(&mut Expr),
) {
    if block_any(block, affected) {
        walk_block_mut(Arc::make_mut(block), f);
    }
}

/// Whether `block` assigns the field `name` anywhere, nested blocks
/// included.
fn sets_field(block: &Block, name: &str) -> bool {
    block.iter().any(|stmt| match stmt {
        Stmt::SetField(n, _) => n == name,
        Stmt::If {
            then, otherwise, ..
        } => sets_field(then, name) || sets_field(otherwise, name),
        Stmt::While { body, .. } => sets_field(body, name),
        _ => false,
    })
}

/// Rewrites `SetField` statement targets from `old` to `new`, recursing
/// into nested blocks.
fn rename_setfield_targets(block: &mut Block, old: &str, new: &str) {
    for stmt in block {
        match stmt {
            Stmt::SetField(name, _) if name == old => *name = new.to_string(),
            Stmt::If {
                then, otherwise, ..
            } => {
                rename_setfield_targets(then, old, new);
                rename_setfield_targets(otherwise, old, new);
            }
            Stmt::While { body, .. } => rename_setfield_targets(body, old, new),
            _ => {}
        }
    }
}

fn validate_ident(name: &str) -> Result<(), JpieError> {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => chars.all(|c| c.is_alphanumeric() || c == '_'),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(JpieError::Invalid(format!("invalid identifier {name:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn simple_class() -> (ClassHandle, MethodId) {
        let class = ClassHandle::new("C");
        let id = class
            .add_method(
                MethodBuilder::new("f", TypeDesc::Int)
                    .param("a", TypeDesc::Int)
                    .distributed(true)
                    .body_expr(Expr::param("a") + Expr::lit(1)),
            )
            .unwrap();
        (class, id)
    }

    #[test]
    fn add_method_assigns_stable_ids() {
        let (class, id) = simple_class();
        let sig = class.signature(id).unwrap();
        assert_eq!(sig.name, "f");
        assert_eq!(sig.params.len(), 1);
        assert!(sig.distributed);
        assert_eq!(class.find_method("f"), Some(id));
        assert_eq!(class.find_method("missing"), None);
    }

    #[test]
    fn duplicate_method_name_rejected() {
        let (class, _) = simple_class();
        assert!(class
            .add_method(MethodBuilder::new("f", TypeDesc::Void))
            .is_err());
    }

    #[test]
    fn invalid_identifiers_rejected() {
        let class = ClassHandle::new("C");
        assert!(class
            .add_method(MethodBuilder::new("1bad", TypeDesc::Void))
            .is_err());
        assert!(class
            .add_method(MethodBuilder::new("with space", TypeDesc::Void))
            .is_err());
        assert!(class
            .add_method(MethodBuilder::new("", TypeDesc::Void))
            .is_err());
    }

    #[test]
    fn interface_version_tracks_distributed_changes_only() {
        let (class, id) = simple_class();
        let v0 = class.interface_version();

        // Body change: not an interface change.
        class.set_body_expr(id, Expr::param("a")).unwrap();
        assert_eq!(class.interface_version(), v0);

        // Rename: interface change.
        class.rename_method(id, "g").unwrap();
        assert_eq!(class.interface_version(), v0 + 1);

        // Non-distributed method add: not an interface change.
        class
            .add_method(MethodBuilder::new("helper", TypeDesc::Void))
            .unwrap();
        assert_eq!(class.interface_version(), v0 + 1);

        // Making it distributed: interface change.
        let h = class.find_method("helper").unwrap();
        class.set_distributed(h, true).unwrap();
        assert_eq!(class.interface_version(), v0 + 2);
    }

    #[test]
    fn rename_rewrites_call_sites() {
        let (class, _f) = simple_class();
        let g = class
            .add_method(
                MethodBuilder::new("g", TypeDesc::Int)
                    .body_expr(Expr::self_call("f", vec![("a", Expr::lit(41))])),
            )
            .unwrap();
        let f = class.find_method("f").unwrap();
        class.rename_method(f, "plus_one").unwrap();

        // g's body must now call plus_one — verified by executing it.
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke_id(g, &[]).unwrap(), Value::Int(42));
    }

    #[test]
    fn an_edit_copies_only_the_bodies_it_rewrites() {
        let (class, f) = simple_class();
        for (name, body) in [
            ("caller", Expr::self_call("f", vec![("a", Expr::lit(1))])),
            ("bystander", Expr::lit(7)),
        ] {
            class
                .add_method(MethodBuilder::new(name, TypeDesc::Int).body_expr(body))
                .unwrap();
        }
        let shares_body = |before: &[DynamicMethod], after: &[DynamicMethod], i: usize| match (
            &before[i].body,
            &after[i].body,
        ) {
            (MethodBody::Interpreted(a), MethodBody::Interpreted(b)) => Arc::ptr_eq(a, b),
            _ => unreachable!("all three bodies are interpreted"),
        };
        let before = class.source_methods();
        class.rename_method(f, "g").unwrap();
        let after = class.source_methods();
        assert!(shares_body(&before, &after, 0), "f's own body has no call");
        assert!(
            !shares_body(&before, &after, 1),
            "the call site is rewritten"
        );
        assert!(shares_body(&before, &after, 2), "bystander was copied");
        // Undo hands the old blocks back rather than rebuilding them.
        class.undo().unwrap();
        let undone = class.source_methods();
        assert!((0..3).all(|i| shares_body(&before, &undone, i)));
    }

    #[test]
    fn add_param_keeps_call_sites_consistent() {
        let (class, f) = simple_class();
        let g = class
            .add_method(
                MethodBuilder::new("g", TypeDesc::Int)
                    .body_expr(Expr::self_call("f", vec![("a", Expr::lit(1))])),
            )
            .unwrap();
        class.add_param(f, "b", TypeDesc::Int).unwrap();
        class
            .set_body_expr(f, Expr::param("a") + Expr::param("b"))
            .unwrap();
        let inst = class.instantiate().unwrap();
        // g's call site gained b = default 0 automatically.
        assert_eq!(inst.invoke_id(g, &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn remove_param_strips_call_sites() {
        let (class, f) = simple_class();
        let pid = class.signature(f).unwrap().params[0].0;
        let g = class
            .add_method(
                MethodBuilder::new("g", TypeDesc::Int)
                    .body_expr(Expr::self_call("f", vec![("a", Expr::lit(10))])),
            )
            .unwrap();
        class.remove_param(f, pid).unwrap();
        class.set_body_expr(f, Expr::lit(7)).unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke_id(g, &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn rename_param_rewrites_body_and_call_sites() {
        let (class, f) = simple_class();
        let pid = class.signature(f).unwrap().params[0].0;
        let g = class
            .add_method(
                MethodBuilder::new("g", TypeDesc::Int)
                    .body_expr(Expr::self_call("f", vec![("a", Expr::lit(4))])),
            )
            .unwrap();
        class.rename_param(f, pid, "x").unwrap();
        assert_eq!(class.signature(f).unwrap().params[0].1, "x");
        let inst = class.instantiate().unwrap();
        // f's own body (`a + 1`) was rewritten to use x; g's named arg too.
        assert_eq!(inst.invoke_id(f, &[Value::Int(4)]).unwrap(), Value::Int(5));
        assert_eq!(inst.invoke_id(g, &[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn reorder_params_is_signature_change_but_calls_survive() {
        let class = ClassHandle::new("C");
        let f = class
            .add_method(
                MethodBuilder::new("sub", TypeDesc::Int)
                    .param("a", TypeDesc::Int)
                    .param("b", TypeDesc::Int)
                    .distributed(true)
                    .body_expr(Expr::param("a") - Expr::param("b")),
            )
            .unwrap();
        let g = class
            .add_method(
                MethodBuilder::new("g", TypeDesc::Int).body_expr(Expr::self_call(
                    "sub",
                    vec![("a", Expr::lit(10)), ("b", Expr::lit(3))],
                )),
            )
            .unwrap();
        let ids: Vec<ParamId> = class
            .signature(f)
            .unwrap()
            .params
            .iter()
            .map(|p| p.0)
            .collect();
        let v0 = class.interface_version();
        class.reorder_params(f, &[ids[1], ids[0]]).unwrap();
        assert_eq!(class.interface_version(), v0 + 1);
        assert_eq!(class.signature(f).unwrap().params[0].1, "b");

        let inst = class.instantiate().unwrap();
        // Positional semantics changed for direct invokes...
        assert_eq!(
            inst.invoke_id(f, &[Value::Int(3), Value::Int(10)]).unwrap(),
            Value::Int(7)
        );
        // ...but the named call site still computes 10 - 3.
        assert_eq!(inst.invoke_id(g, &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn reorder_requires_permutation() {
        let (class, f) = simple_class();
        assert!(class.reorder_params(f, &[]).is_err());
        assert!(class.reorder_params(f, &[ParamId(999)]).is_err());
    }

    #[test]
    fn undo_redo_roundtrip() {
        let (class, f) = simple_class();
        let v_before = class.interface_version();
        class.rename_method(f, "g").unwrap();
        let v_after = class.interface_version();
        assert_ne!(v_before, v_after);

        class.undo().unwrap();
        assert_eq!(class.signature(f).unwrap().name, "f");
        class.redo().unwrap();
        assert_eq!(class.signature(f).unwrap().name, "g");
        assert!(class.redo().is_err());
    }

    #[test]
    fn undo_restores_interface_and_bumps_version() {
        let (class, f) = simple_class();
        let v0 = class.interface_version();
        class.rename_method(f, "g").unwrap();
        class.undo().unwrap();
        // Undo changed the distributed interface again → version advances.
        assert_eq!(class.interface_version(), v0 + 2);
    }

    #[test]
    fn undo_empty_stack_errors() {
        let class = ClassHandle::new("C");
        assert!(matches!(class.undo(), Err(JpieError::NothingToUndo)));
        assert!(matches!(class.redo(), Err(JpieError::NothingToUndo)));
    }

    #[test]
    fn new_edit_clears_redo_stack() {
        let (class, f) = simple_class();
        class.rename_method(f, "g").unwrap();
        class.undo().unwrap();
        class.set_distributed(f, false).unwrap();
        assert!(class.redo().is_err());
    }

    #[test]
    fn events_carry_distributed_flag() {
        let (class, f) = simple_class();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let observer: Arc<ClassObserver> =
            Arc::new(move |e: &ClassEvent| log.lock().push(e.clone()));
        class.observe(observer.clone());
        class.set_body_expr(f, Expr::lit(0)).unwrap();
        class.rename_method(f, "g").unwrap();
        class.undo().unwrap();
        class.unobserve(&observer);
        class.redo().unwrap();
        let events = seen.lock().clone();
        let flags: Vec<_> = events.iter().map(|e| e.distributed_change).collect();
        assert_eq!(flags, [false, true, true]);
        assert_eq!(events.len(), 3, "an unobserved class calls no one");
    }

    #[test]
    fn single_instance_rule() {
        let (class, _) = simple_class();
        let inst = class.instantiate().unwrap();
        assert!(matches!(
            class.instantiate(),
            Err(JpieError::AlreadyInstantiated(_))
        ));
        drop(inst);
        assert!(class.instantiate().is_ok());
    }

    #[test]
    fn fields_add_remove() {
        let class = ClassHandle::new("C");
        class.add_field("count", TypeDesc::Int).unwrap();
        assert!(class.add_field("count", TypeDesc::Int).is_err());
        assert_eq!(class.declared_fields().len(), 1);
        class.remove_field("count").unwrap();
        assert!(class.remove_field("count").is_err());
        assert!(class.add_field("x", TypeDesc::Void).is_err());
    }

    #[test]
    fn history_depth_reports() {
        let (class, f) = simple_class();
        assert_eq!(class.history_depth(), (1, 0)); // the add_method
        class.rename_method(f, "g").unwrap();
        assert_eq!(class.history_depth(), (2, 0));
        class.undo().unwrap();
        assert_eq!(class.history_depth(), (1, 1));
    }

    #[test]
    fn distributed_signatures_filters() {
        let (class, _) = simple_class();
        class
            .add_method(MethodBuilder::new("local_only", TypeDesc::Void))
            .unwrap();
        assert_eq!(class.signatures().len(), 2);
        assert_eq!(class.distributed_signatures().len(), 1);
    }

    #[test]
    fn rename_field_rewrites_uses_and_migrates_state() {
        let class = ClassHandle::new("C");
        class.add_field("count", TypeDesc::Int).unwrap();
        let bump = class
            .add_method(
                MethodBuilder::new("bump", TypeDesc::Int)
                    .body_source("this.count = this.count + 1; return this.count;")
                    .unwrap(),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke("bump", &[]).unwrap(), Value::Int(1));
        assert_eq!(inst.invoke("bump", &[]).unwrap(), Value::Int(2));

        class.rename_field("count", "total").unwrap();
        // Declaration renamed, body rewritten, live value migrated.
        assert_eq!(class.declared_fields()[0].0, "total");
        let source = class.method_source(bump).unwrap().unwrap();
        assert!(source.contains("this.total"), "{source}");
        assert!(!source.contains("this.count"), "{source}");
        assert_eq!(inst.field("total").unwrap(), Value::Int(2));
        assert_eq!(inst.invoke("bump", &[]).unwrap(), Value::Int(3));
        assert!(inst.field("count").is_err());
    }

    #[test]
    fn rename_field_validation() {
        let class = ClassHandle::new("C");
        class.add_field("a", TypeDesc::Int).unwrap();
        class.add_field("b", TypeDesc::Int).unwrap();
        assert!(class.rename_field("missing", "x").is_err());
        assert!(class.rename_field("a", "b").is_err());
        assert!(class.rename_field("a", "1bad").is_err());
        class.rename_field("a", "c").unwrap();
        assert!(class.declared_fields().iter().any(|(n, _)| n == "c"));
    }

    #[test]
    fn rename_field_in_nested_statements() {
        let class = ClassHandle::new("C");
        class.add_field("n", TypeDesc::Int).unwrap();
        let m = class
            .add_method(
                MethodBuilder::new("loopy", TypeDesc::Int)
                    .body_source(
                        "let i = 0; \
                         while (i < 3) { \
                           if (true) { this.n = this.n + 1; } else { this.n = 0; } \
                           i = i + 1; \
                         } \
                         return this.n;",
                    )
                    .unwrap(),
            )
            .unwrap();
        class.rename_field("n", "acc").unwrap();
        let source = class.method_source(m).unwrap().unwrap();
        assert!(!source.contains("this.n"), "{source}");
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke("loopy", &[]).unwrap(), Value::Int(3));
    }

    #[test]
    fn class_source_renders_everything() {
        let class = ClassHandle::new("Shown");
        class.add_field("count", TypeDesc::Int).unwrap();
        class
            .add_method(
                MethodBuilder::new("inc", TypeDesc::Int)
                    .param("by", TypeDesc::Int)
                    .distributed(true)
                    .body_source("this.count = this.count + by; return this.count;")
                    .unwrap(),
            )
            .unwrap();
        class
            .add_method(
                MethodBuilder::new("native_op", TypeDesc::Void)
                    .body_native(|_f, _a| Ok(crate::Value::Null)),
            )
            .unwrap();
        let src = class.class_source();
        assert!(src.contains("class Shown {"), "{src}");
        assert!(src.contains("field int count;"), "{src}");
        assert!(src.contains("distributed int inc(int by) {"), "{src}");
        assert!(src.contains("this.count = this.count + by;"), "{src}");
        assert!(src.contains("/* native */"), "{src}");
    }

    #[test]
    fn stale_method_id_errors() {
        let (class, f) = simple_class();
        class.remove_method(f).unwrap();
        assert!(matches!(
            class.signature(f),
            Err(JpieError::StaleMethodId(_))
        ));
        assert!(class.rename_method(f, "x").is_err());
        assert!(class.set_distributed(f, true).is_err());
        assert!(class.remove_method(f).is_err());
    }
}
