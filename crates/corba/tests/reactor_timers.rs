//! The idle deadline of a busy ORB connection (either scheme) must cost one
//! filed timer, however many requests re-arm it: `reactor_timers_armed`
//! (filed wheel entries) stays at or below `reactor_fds_registered`.
//! Before the wheel kept one entry per source, every request left a
//! dead entry filed for 30 s and this gauge would have read ~10 000.

use std::time::{Duration, Instant};

use corba::{DynamicImplementation, OrbConnection, ServerOrb, ServerRequest};
use jpie::Value;

struct Echo;

impl DynamicImplementation for Echo {
    fn invoke(&self, req: &mut ServerRequest) {
        req.set_result(req.arguments()[0].clone());
    }
}

#[test]
fn ten_thousand_calls_on_one_connection_file_one_timer() {
    for addr in ["mem://orb-timers", "tcp://127.0.0.1:0"] {
        one_connection_files_one_timer(addr);
    }
}

fn one_connection_files_one_timer(addr: &str) {
    let orb = ServerOrb::init(addr, "IDL:Echo:1.0", Echo).unwrap();
    let mut conn = OrbConnection::connect(&orb.ior()).unwrap();
    for i in 0..10_000 {
        let got = conn.call("echo", &[Value::Int(i)]).unwrap();
        assert_eq!(got, Value::Int(i));
    }
    let armed = obs::registry().gauge("reactor_timers_armed");
    let fds = obs::registry().gauge("reactor_fds_registered");
    // The shard publishes its count each time it goes back to sleep,
    // which may be a moment after the last reply reached us.
    let settles_at = |want: i64| {
        let start = Instant::now();
        while armed.get() != want && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        armed.get()
    };
    assert_eq!(settles_at(1), 1, "the parked connection's idle deadline");
    assert!(
        armed.get() <= fds.get(),
        "timers_armed {} > fds_registered {}",
        armed.get(),
        fds.get()
    );
    conn.close();
    orb.shutdown();
    assert_eq!(settles_at(0), 0, "a closed connection leaves no entry");
}
