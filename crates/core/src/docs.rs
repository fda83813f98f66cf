//! The Interface Server: HTTP publication of WSDL / CORBA-IDL / IOR
//! documents (§5.1/§5.2 — "a simple HTTP server that publishes the
//! documents to the public domain"; one instance is shared by both
//! subsystems "for simplicity").

use std::collections::HashMap;
use std::sync::Arc;

use httpd::{Handler, HttpServer, Request, Response};
use obs::sync::RwLock;

use crate::error::SdeError;
use crate::wal::VersionWal;

/// The shared store of published documents, keyed by URL path
/// (e.g. `/Calc.wsdl`, `/Calc.idl`, `/Calc.ior`).
#[derive(Debug, Default, Clone)]
pub struct DocumentStore {
    docs: Arc<RwLock<HashMap<String, PublishedDocument>>>,
    /// Version history per path (append-only; survives retraction).
    history: Arc<RwLock<HashMap<String, Vec<u64>>>>,
    /// Durable publication log, when the manager was configured with one.
    wal: Arc<RwLock<Option<Arc<VersionWal>>>>,
}

/// One published document with its version stamp.
///
/// The body is stored as a shared `Arc<[u8]>`, so cloning a document
/// (and serving it over HTTP) never copies the bytes — the Interface
/// Server hands the same allocation to every concurrent reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedDocument {
    body: Arc<[u8]>,
    /// FNV-1a digest of the body as published, computed once in
    /// [`DocumentStore::publish`].
    digest: u64,
    /// Interface version the document reflects.
    pub version: u64,
    /// MIME type served with it.
    pub content_type: &'static str,
}

impl PublishedDocument {
    /// Document body as text (documents are WSDL/IDL/IOR — always UTF-8).
    pub fn content(&self) -> &str {
        std::str::from_utf8(&self.body).expect("published documents are UTF-8")
    }

    /// Shared handle to the document bytes (zero-copy serving).
    pub fn body(&self) -> Arc<[u8]> {
        self.body.clone()
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the document is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Strong validator for conditional GETs: the interface version and
    /// the body's digest. The version alone does not identify the bytes:
    /// [`DocumentStore::publish`] replaces a document at the same
    /// version (a class rebuilt from its source after a failover is
    /// republished at its old version with other signatures).
    pub fn etag(&self) -> String {
        format!("\"v{}-{:016x}\"", self.version, self.digest)
    }

    /// Whether `other` carries the same [`etag`](Self::etag).
    pub fn same_etag(&self, other: &PublishedDocument) -> bool {
        (self.version, self.digest) == (other.version, other.digest)
    }

    /// The same document, version, type and digest with `body` in place
    /// of its bytes (a router rewriting addresses in it): a rewritten
    /// copy keeps the validator of the document it was made from.
    pub fn with_body(&self, body: Vec<u8>) -> PublishedDocument {
        PublishedDocument {
            body: body.into(),
            ..self.clone()
        }
    }

    /// Answers a `GET` or `HEAD` for this document: every server of
    /// documents answers with this, so `ETag`, `304`, `HEAD` and
    /// `Content-Length` agree wherever a document is served.
    pub fn answer(&self, req: &Request) -> Response {
        let etag = self.etag();
        // Conditional GET: a client that already holds this version gets
        // a bodyless 304 — the watcher's steady state costs headers only,
        // never a re-download.
        if req.headers().get("If-None-Match") == Some(etag.as_str()) {
            let mut resp =
                Response::new(httpd::Status::NOT_MODIFIED, Vec::new(), self.content_type);
            resp.headers_mut().set("ETag", etag);
            resp.headers_mut()
                .set("X-Interface-Version", self.version.to_string());
            return resp;
        }
        // HEAD gets the headers (length, version) without the body —
        // clients use it to poll for version changes cheaply.
        let mut resp = if req.method() == httpd::Method::Head {
            Response::ok(Vec::new(), self.content_type)
        } else {
            // The shared body Arc goes straight to the socket writer: no
            // per-request copy of the document.
            Response::ok_shared(self.body(), self.content_type)
        };
        resp.headers_mut()
            .set("X-Interface-Version", self.version.to_string());
        resp.headers_mut().set("ETag", etag);
        resp.headers_mut()
            .set("Content-Length", self.len().to_string());
        resp
    }
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> DocumentStore {
        DocumentStore::default()
    }

    /// Attaches a durable publication log: every subsequent
    /// [`publish`](DocumentStore::publish) appends to it before the
    /// document becomes visible in the store.
    pub fn attach_wal(&self, wal: Arc<VersionWal>) {
        *self.wal.write() = Some(wal);
    }

    /// Publishes (or replaces) the document at `path`. Returns whether
    /// the document actually became visible: when a durable log is
    /// attached and the version cannot be made durable, the publication
    /// is refused — a client must never observe a version a crash could
    /// forget.
    pub fn publish(
        &self,
        path: &str,
        content: String,
        version: u64,
        content_type: &'static str,
    ) -> bool {
        // Durability first: the version must hit disk before any client
        // can observe it, or a crash could roll the version stream back.
        if let Some(wal) = self.wal.read().as_ref() {
            if let Err(e) = wal.append(path, version) {
                obs::registry()
                    .counter("sde_docs_publish_refused_total")
                    .inc();
                obs::events::note(
                    "sde::docs",
                    "publish-refused",
                    format!("path={path} version={version} wal append failed: {e}"),
                );
                return false;
            }
        }
        self.docs.write().insert(
            path.to_string(),
            PublishedDocument {
                digest: fnv1a(content.as_bytes()),
                body: content.into_bytes().into(),
                version,
                content_type,
            },
        );
        self.history
            .write()
            .entry(path.to_string())
            .or_default()
            .push(version);
        obs::registry().counter("sde_docs_published_total").inc();
        true
    }

    /// The sequence of versions ever published at `path` (oldest first) —
    /// the observability hook behind the publication experiments.
    pub fn history(&self, path: &str) -> Vec<u64> {
        self.history.read().get(path).cloned().unwrap_or_default()
    }

    /// Removes the document at `path` (used when a server is retired).
    pub fn retract(&self, path: &str) {
        self.docs.write().remove(path);
        obs::registry().counter("sde_docs_retracted_total").inc();
    }

    /// Reads the document at `path`.
    pub fn get(&self, path: &str) -> Option<PublishedDocument> {
        self.docs.read().get(path).cloned()
    }

    /// All published paths.
    pub fn paths(&self) -> Vec<String> {
        self.docs.read().keys().cloned().collect()
    }
}

/// 64-bit FNV-1a: one xor and one multiply per byte, the same on every
/// platform. The router's hash ring places classes with it; the
/// Interface Server digests each published document with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct StoreHandler {
    store: DocumentStore,
}

impl Handler for StoreHandler {
    fn handle(&self, req: &Request) -> Response {
        let path = req.path().split('?').next().unwrap_or("/");
        match self.store.get(path) {
            Some(doc) => doc.answer(req),
            None => Response::not_found(&format!("no document published at {path}")),
        }
    }
}

/// The Interface Server: serves every document in a [`DocumentStore`]
/// over HTTP.
#[derive(Debug)]
pub struct InterfaceServer {
    store: DocumentStore,
    http: HttpServer,
}

impl InterfaceServer {
    /// Binds `addr` (e.g. `mem://sde-ifc-1` or `tcp://127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Fails if the endpoint cannot be bound.
    pub fn bind(addr: &str) -> Result<InterfaceServer, SdeError> {
        let store = DocumentStore::new();
        // Hardened pool: header/body limits, per-request read timeouts
        // and queue deadlines, so a slow-loris or blackholed peer cannot
        // wedge interface-document serving.
        let http = HttpServer::bind_with(
            addr,
            StoreHandler {
                store: store.clone(),
            },
            httpd::PoolConfig::hardened(),
        )?;
        Ok(InterfaceServer { store, http })
    }

    /// The store documents are published into.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Base URL, e.g. `mem://sde-ifc-1`.
    pub fn base_url(&self) -> String {
        self.http.base_url()
    }

    /// Full URL for a published path.
    pub fn url_for(&self, path: &str) -> String {
        format!("{}{}", self.base_url(), path)
    }

    /// Stops serving.
    pub fn shutdown(&self) {
        self.http.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpd::HttpClient;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn publish_and_fetch() {
        let server = InterfaceServer::bind("mem://ifc-basic").unwrap();
        server
            .store()
            .publish("/Calc.wsdl", "<wsdl/>".into(), 3, "text/xml");
        let resp = HttpClient::new()
            .get(&server.url_for("/Calc.wsdl"))
            .unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.body_str(), "<wsdl/>");
        assert_eq!(resp.headers().get("X-Interface-Version"), Some("3"));
        server.shutdown();
    }

    #[test]
    fn missing_document_is_404() {
        let server = InterfaceServer::bind("mem://ifc-404").unwrap();
        let resp = HttpClient::new().get(&server.url_for("/nope.idl")).unwrap();
        assert_eq!(resp.status(), 404);
        server.shutdown();
    }

    #[test]
    fn republication_replaces_content() {
        let server = InterfaceServer::bind("mem://ifc-repub").unwrap();
        server
            .store()
            .publish("/a.idl", "v1".into(), 1, "text/plain");
        server
            .store()
            .publish("/a.idl", "v2".into(), 2, "text/plain");
        let resp = HttpClient::new().get(&server.url_for("/a.idl")).unwrap();
        assert_eq!(resp.body_str(), "v2");
        assert_eq!(resp.headers().get("X-Interface-Version"), Some("2"));
        server.shutdown();
    }

    #[test]
    fn history_records_all_versions() {
        let store = DocumentStore::new();
        assert!(store.history("/a.wsdl").is_empty());
        store.publish("/a.wsdl", "v1".into(), 1, "text/xml");
        store.publish("/a.wsdl", "v3".into(), 3, "text/xml");
        store.publish("/b.idl", "x".into(), 7, "text/plain");
        assert_eq!(store.history("/a.wsdl"), vec![1, 3]);
        assert_eq!(store.history("/b.idl"), vec![7]);
        // Retraction does not erase history.
        store.retract("/a.wsdl");
        assert_eq!(store.history("/a.wsdl"), vec![1, 3]);
    }

    #[test]
    fn publish_refused_when_wal_cannot_record_the_version() {
        let dir = std::env::temp_dir().join("live-rmi-docs-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("refuse-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = Arc::new(crate::wal::VersionWal::open(&path).unwrap());
        let store = DocumentStore::new();
        store.attach_wal(wal.clone());
        assert!(store.publish("/A.wsdl", "<v1/>".into(), 1, "text/xml"));
        wal.poison_for_test();
        assert!(
            !store.publish("/A.wsdl", "<v2/>".into(), 2, "text/xml"),
            "a version the WAL could not record must not become visible"
        );
        // Clients still see only the last durable version.
        assert_eq!(store.get("/A.wsdl").unwrap().version, 1);
        assert_eq!(store.history("/A.wsdl"), vec![1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retract_removes() {
        let server = InterfaceServer::bind("mem://ifc-retract").unwrap();
        server
            .store()
            .publish("/a.ior", "IOR:00".into(), 0, "text/plain");
        assert_eq!(server.store().paths().len(), 1);
        server.store().retract("/a.ior");
        let resp = HttpClient::new().get(&server.url_for("/a.ior")).unwrap();
        assert_eq!(resp.status(), 404);
        server.shutdown();
    }

    #[test]
    fn head_returns_version_without_body() {
        let server = InterfaceServer::bind("mem://ifc-head").unwrap();
        server
            .store()
            .publish("/Svc.wsdl", "a-sizeable-document".into(), 9, "text/xml");
        let resp = HttpClient::new()
            .head(&server.url_for("/Svc.wsdl"))
            .unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.headers().get("X-Interface-Version"), Some("9"));
        assert_eq!(
            resp.headers().get("Content-Length"),
            Some("a-sizeable-document".len().to_string().as_str())
        );
        assert!(resp.body().is_empty());
        // The connection is not wedged: a follow-up GET works.
        let resp = HttpClient::new().get(&server.url_for("/Svc.wsdl")).unwrap();
        assert_eq!(resp.body_str(), "a-sizeable-document");
        server.shutdown();
    }

    #[test]
    fn conditional_get_returns_304_until_republication() {
        let server = InterfaceServer::bind("mem://ifc-etag").unwrap();
        server
            .store()
            .publish("/Svc.wsdl", "<wsdl v1/>".into(), 1, "text/xml");
        let url = server.url_for("/Svc.wsdl");

        let first = HttpClient::new().get(&url).unwrap();
        assert_eq!(first.status(), 200);
        let etag = first
            .headers()
            .get("ETag")
            .expect("ETag served")
            .to_string();
        assert_eq!(etag, format!("\"v1-{:016x}\"", fnv1a(b"<wsdl v1/>")));

        // Same version: 304, no body.
        let mut req = httpd::Request::get("/Svc.wsdl");
        req.headers_mut().set("If-None-Match", &etag);
        let mut conn = HttpClient::new().connect(&url).unwrap();
        let not_modified = conn.send(&req).unwrap();
        assert_eq!(not_modified.status(), 304);
        assert!(not_modified.body().is_empty());
        assert_eq!(not_modified.headers().get("ETag"), Some(etag.as_str()));

        // Republication changes the ETag and the stale validator
        // re-downloads the full document.
        server
            .store()
            .publish("/Svc.wsdl", "<wsdl v2/>".into(), 2, "text/xml");
        let refreshed = conn.send(&req).unwrap();
        assert_eq!(refreshed.status(), 200);
        assert_eq!(refreshed.body_str(), "<wsdl v2/>");
        let v2 = format!("\"v2-{:016x}\"", fnv1a(b"<wsdl v2/>"));
        assert_eq!(refreshed.headers().get("ETag"), Some(v2.as_str()));
        server.shutdown();
    }

    #[test]
    fn republication_at_the_same_version_is_not_a_304() {
        let store = DocumentStore::new();
        store.publish("/Svc.wsdl", "<op name=\"f\"/>".into(), 2, "text/xml");
        let held = store.get("/Svc.wsdl").unwrap();
        store.publish("/Svc.wsdl", "<op name=\"g\"/>".into(), 2, "text/xml");
        let now = store.get("/Svc.wsdl").unwrap();
        assert_ne!(held.etag(), now.etag());
        assert!(!held.same_etag(&now));

        let mut req = httpd::Request::get("/Svc.wsdl");
        req.headers_mut().set("If-None-Match", held.etag());
        let resp = now.answer(&req);
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.body(), "<op name=\"g\"/>".as_bytes());

        // A rewritten copy keeps the validator it was made from.
        let rewritten = now.with_body(b"<op name=\"g\" at=\"front\"/>".to_vec());
        assert_eq!(rewritten.etag(), now.etag());
        assert!(rewritten.same_etag(&now));
    }

    #[test]
    fn served_body_shares_the_published_allocation() {
        // Zero-copy check: two `get`s hand back the same Arc allocation.
        let store = DocumentStore::new();
        store.publish("/a.wsdl", "shared-bytes".into(), 1, "text/xml");
        let a = store.get("/a.wsdl").unwrap().body();
        let b = store.get("/a.wsdl").unwrap().body();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn query_strings_ignored() {
        let server = InterfaceServer::bind("mem://ifc-query").unwrap();
        server
            .store()
            .publish("/x.wsdl", "doc".into(), 1, "text/xml");
        let resp = HttpClient::new()
            .get(&server.url_for("/x.wsdl?cache-bust=1"))
            .unwrap();
        assert_eq!(resp.body_str(), "doc");
        server.shutdown();
    }
}
