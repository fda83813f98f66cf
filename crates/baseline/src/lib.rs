//! # baseline — static SOAP and CORBA comparators
//!
//! Table 1 of the paper compares the SDE servers against *static*
//! deployments: an Axis Web Service inside Tomcat and a static OpenORB
//! server, each driven by a static client. This crate provides those
//! comparators on the same substrates as SDE, but with everything the
//! live middleware adds stripped away: a fixed dispatch table instead of
//! a dynamic class, no DL Publisher, no stale-call path, no interface
//! versioning. The RTT difference between these servers and the SDE ones
//! is therefore exactly the overhead §7 measures.
//!
//! # Examples
//!
//! ```
//! use baseline::{StaticSoapServer, StaticSoapClient};
//! use jpie::{TypeDesc, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut server = StaticSoapServer::builder("Echo");
//! server.operation(
//!     "echo",
//!     vec![("s".into(), TypeDesc::Str)],
//!     TypeDesc::Str,
//!     |args| Ok(args[0].clone()),
//! );
//! let server = server.bind("mem://doc-static-soap")?;
//!
//! let mut client = StaticSoapClient::from_wsdl_xml(&server.wsdl_xml())?;
//! let v = client.call("echo", &[Value::Str("hi".into())])?;
//! assert_eq!(v, Value::Str("hi".into()));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod corba_static;
mod export;
mod soap_static;

pub use corba_static::{StaticCorbaClient, StaticCorbaServer, StaticCorbaServerBuilder};
pub use export::{export_corba, export_soap};
pub use soap_static::{StaticSoapClient, StaticSoapServer, StaticSoapServerBuilder};

use jpie::Value;

/// A fixed server operation: positional arguments in, value or error
/// message out.
pub type StaticOp = dyn Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static;
