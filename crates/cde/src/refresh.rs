//! The client half of §6 as one pure machine: when a view needs a fetch,
//! and whether a fetched document replaces it. It holds no lock, thread,
//! clock or I/O; the stub feeds it under its view's write lock, so a
//! decision and the install it orders are one critical section.
//!
//! A fetched document replaces the view when its version is not lower
//! than the view's — a fetch answered late must not roll back what a
//! concurrent one installed — or when the view has not moved since the
//! fetch was issued, so the view follows a server restarted without its
//! WAL, whose versions start over.

/// What the refresh machine is told.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Input {
    /// A refresh was asked for: a stub being built, its watcher, a user.
    Refresh,
    /// A call's reply named a method the server does not have (§6).
    Stale,
    /// Attempt `n` (counting from 1) of a call failed in transport.
    TransportFailed(u32),
    /// The fetch issued with `ticket` returned a document at `version`.
    Fetched { ticket: u64, version: u64 },
    /// A watcher's poll ended; the version it last reported.
    Tick(u64),
}

/// What the runner must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Output {
    /// Fetch the published documents and answer [`Input::Fetched`] with
    /// this ticket (the view's version at the issue) — for a call, before
    /// its outcome surfaces.
    Fetch(u64),
    /// Replace the view with the fetched document.
    Install,
    /// Drop the fetched document and the validator it came with.
    Discard,
    /// The watcher reports the view at this version.
    Update(u64),
}

/// The client's refresh decisions for one stub. A step has at most one
/// output, so it returns an `Option` and allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Refresh {
    /// The installed document's interface version.
    view: u64,
}

impl Refresh {
    /// The interface version of the installed view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// One transition.
    pub fn step(&mut self, input: Input) -> Option<Output> {
        match input {
            Input::Refresh | Input::Stale => Some(Output::Fetch(self.view)),
            // Two transport failures in a row suggest the endpoint is
            // gone, not flaky, and a sharded deployment answers exactly
            // that by republishing the documents at a promoted authority.
            Input::TransportFailed(attempt) if attempt >= 2 => Some(Output::Fetch(self.view)),
            Input::TransportFailed(_) => None,
            Input::Fetched { ticket, version } => {
                if version >= self.view || ticket == self.view {
                    self.view = version;
                    Some(Output::Install)
                } else {
                    Some(Output::Discard)
                }
            }
            Input::Tick(last) => (self.view != last).then_some(Output::Update(self.view)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(machine: &mut Refresh, input: Input) -> u64 {
        match machine.step(input) {
            Some(Output::Fetch(ticket)) => ticket,
            other => panic!("{input:?} asked for {other:?}, not a fetch"),
        }
    }

    #[test]
    fn stale_replies_and_a_second_transport_failure_fetch_first() {
        let mut machine = Refresh::default();
        fetch(&mut machine, Input::Stale);
        fetch(&mut machine, Input::Refresh);
        assert_eq!(machine.step(Input::TransportFailed(1)), None);
        fetch(&mut machine, Input::TransportFailed(2));
        fetch(&mut machine, Input::TransportFailed(3));
    }

    #[test]
    fn a_fetch_answered_late_does_not_roll_the_view_back() {
        let mut machine = Refresh::default();
        let first = fetch(&mut machine, Input::Refresh);
        let second = fetch(&mut machine, Input::Stale);
        let v2 = Input::Fetched {
            ticket: second,
            version: 2,
        };
        assert_eq!(machine.step(v2), Some(Output::Install));
        let v1 = Input::Fetched {
            ticket: first,
            version: 1,
        };
        assert_eq!(machine.step(v1), Some(Output::Discard));
        assert_eq!(machine.view(), 2);
        // Answered in issue order, both install.
        let (a, b) = (
            fetch(&mut machine, Input::Refresh),
            fetch(&mut machine, Input::Refresh),
        );
        for (ticket, version) in [(a, 3), (b, 4)] {
            let answer = Input::Fetched { ticket, version };
            assert_eq!(machine.step(answer), Some(Output::Install));
        }
        assert_eq!(machine.view(), 4);
    }

    #[test]
    fn a_restarted_server_is_followed_down() {
        let mut machine = Refresh::default();
        let ticket = fetch(&mut machine, Input::Refresh);
        machine.step(Input::Fetched { ticket, version: 9 });
        let ticket = fetch(&mut machine, Input::Refresh);
        let reborn = Input::Fetched { ticket, version: 1 };
        assert_eq!(machine.step(reborn), Some(Output::Install));
        assert_eq!(machine.view(), 1);
    }

    #[test]
    fn a_tick_reports_a_view_that_moved() {
        let mut machine = Refresh::default();
        assert_eq!(machine.step(Input::Tick(0)), None);
        let ticket = fetch(&mut machine, Input::Stale);
        machine.step(Input::Fetched { ticket, version: 3 });
        assert_eq!(machine.step(Input::Tick(0)), Some(Output::Update(3)));
        assert_eq!(machine.step(Input::Tick(3)), None);
    }
}
