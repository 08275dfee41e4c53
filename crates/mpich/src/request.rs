//! Communication requests (`MPI_Request`): completion objects for
//! non-blocking operations, built on the kernel's virtual-time
//! semaphores — the same structure the paper's rendezvous rhandle uses
//! (a semaphore plus a handle identifying the transaction, §4.2.2). A
//! request's completion slot is a [`OneShot`], and every request — send
//! or receive, on any communicator — returns a communicator-local status.

use std::sync::Arc;

use bytes::Bytes;
use marcel::{ActiveSpan, OneShot};

use crate::group::Group;
use crate::types::Status;

/// What completes a request.
pub(crate) struct Completion {
    /// Received payload as a refcounted slice of the wire buffer (`None`
    /// for sends) — the copy into a caller-owned `Vec` (if the caller
    /// wants one) is deferred to [`Request::wait`].
    data: Option<Bytes>,
    status: Status,
    /// Handling span opened on the device's polling thread; ended by
    /// the receiving rank when it observes the completion, so the
    /// measured handling latency includes the wake handoff.
    span: Option<ActiveSpan>,
}

/// Complete the request behind `slot`: deposit the received data (None
/// for send requests) with the cross-thread handling span, if the
/// delivering device opened one, and wake the waiter.
pub(crate) fn complete(
    slot: &OneShot<Completion>,
    data: Option<Bytes>,
    status: Status,
    span: Option<ActiveSpan>,
) {
    slot.put(Completion { data, status, span });
}

/// `status` with its world-rank source translated to a rank in `group`:
/// the one translation, used by every wait and by the probes (which
/// have no request).
pub(crate) fn localize(group: &Group, status: Status) -> Status {
    let source = group
        .local_rank(status.source)
        .expect("status source outside the communicator (context leak)");
    Status { source, ..status }
}

/// Handle to an in-flight non-blocking operation. Consume with
/// [`Request::wait`]; poll with [`Request::test`].
pub struct Request {
    slot: OneShot<Completion>,
    /// The completion a successful `test` already took.
    done: Option<Completion>,
    /// The issuing communicator's group: completions carry world ranks,
    /// waits return ranks in this group.
    group: Arc<Group>,
}

impl Request {
    pub(crate) fn new(slot: OneShot<Completion>, group: Arc<Group>) -> Request {
        Request {
            slot,
            done: None,
            group,
        }
    }

    /// Block (in virtual time) until the operation completes; returns
    /// the received data (`None` for sends) and the status.
    pub fn wait(self) -> (Option<Vec<u8>>, Status) {
        let (data, status) = self.wait_bytes();
        (data.map(Bytes::into_vec), status)
    }

    /// Like [`Request::wait`], returning the payload as a refcounted
    /// slice of the wire buffer — the zero-copy variant for callers
    /// that don't need an owned `Vec`. Every wait goes through here, so
    /// this is where the status source becomes a communicator rank.
    pub fn wait_bytes(self) -> (Option<Bytes>, Status) {
        let done = match self.done {
            Some(done) => done,
            None => self.slot.take(),
        };
        marcel::obs::span_end(done.span);
        (done.data, localize(&self.group, done.status))
    }

    /// Wait on a receive request and return the data (panics on a send
    /// request).
    pub fn wait_data(self) -> (Vec<u8>, Status) {
        let (data, status) = self.wait();
        (data.expect("wait_data on a send request"), status)
    }

    /// Wait on a send request, discarding the (empty) payload.
    pub fn wait_send(self) {
        let (data, _) = self.wait();
        assert!(data.is_none(), "wait_send on a receive request");
    }

    /// Non-blocking completion check (`MPI_Test`). After it returns
    /// true, `wait` returns immediately.
    pub fn test(&mut self) -> bool {
        if self.done.is_some() {
            return true;
        }
        let Some(mut done) = self.slot.try_take() else {
            return false;
        };
        marcel::obs::span_end(done.span.take());
        self.done = Some(done);
        true
    }
}

/// Wait for every request, in order (`MPI_Waitall`).
pub fn wait_all(requests: Vec<Request>) -> Vec<(Option<Vec<u8>>, Status)> {
    requests.into_iter().map(Request::wait).collect()
}

/// Wait until at least one request completes and return its index plus
/// result (`MPI_Waitany`). Remaining requests stay pending in `requests`.
pub fn wait_any(requests: &mut Vec<Request>) -> (usize, Option<Vec<u8>>, Status) {
    assert!(!requests.is_empty(), "wait_any on an empty request list");
    let mut backoff = marcel::VirtualDuration::from_micros(1);
    loop {
        for (i, r) in requests.iter_mut().enumerate() {
            if r.test() {
                let req = requests.remove(i);
                let (data, status) = req.wait();
                return (i, data, status);
            }
        }
        marcel::sleep(backoff);
        let next = backoff * 2;
        backoff = next.min(marcel::VirtualDuration::from_micros(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marcel::{CostModel, Kernel, VirtualDuration};

    fn request(slot: OneShot<Completion>) -> Request {
        Request::new(slot, Group::world(8))
    }

    fn status(source: usize, len: usize) -> Status {
        Status {
            source,
            tag: 0,
            len,
        }
    }

    #[test]
    fn wait_blocks_until_complete() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("main", || {
            let slot = OneShot::current();
            let req = request(slot.clone());
            marcel::spawn("completer", move || {
                marcel::advance(VirtualDuration::from_micros(30));
                complete(&slot, Some(Bytes::from(vec![1, 2, 3])), status(4, 3), None);
            });
            let (data, status) = req.wait();
            (data, status, marcel::now())
        });
        k.run().unwrap();
        let (data, status, t) = h.join_outcome().unwrap();
        assert_eq!(data, Some(vec![1, 2, 3]));
        assert_eq!(status.len, 3);
        assert!(t.as_micros_f64() >= 30.0);
    }

    #[test]
    fn test_then_wait() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("main", || {
            let slot = OneShot::current();
            let mut req = request(slot.clone());
            assert!(!req.test());
            complete(&slot, None, status(0, 0), None);
            // Completion happened synchronously; test must see it.
            assert!(req.test());
            assert!(req.test(), "test is idempotent once signaled");
            let (data, _) = req.wait();
            data.is_none()
        });
        k.run().unwrap();
        assert!(h.join_outcome().unwrap());
    }

    #[test]
    fn wait_all_in_order() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("main", || {
            let mut reqs = Vec::new();
            for i in 0..3u8 {
                let slot = OneShot::current();
                reqs.push(request(slot.clone()));
                marcel::spawn(format!("c{i}"), move || {
                    marcel::advance(VirtualDuration::from_micros((3 - i as u64) * 10));
                    complete(
                        &slot,
                        Some(Bytes::from(vec![i])),
                        status(i as usize, 1),
                        None,
                    );
                });
            }
            wait_all(reqs)
                .into_iter()
                .map(|(d, _)| d.unwrap()[0])
                .collect::<Vec<_>>()
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn wait_any_returns_earliest() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("main", || {
            let mut reqs = Vec::new();
            for i in 0..3u8 {
                let slot = OneShot::current();
                reqs.push(request(slot.clone()));
                let delay = if i == 1 { 5 } else { 500 };
                marcel::spawn(format!("c{i}"), move || {
                    marcel::advance(VirtualDuration::from_micros(delay));
                    complete(&slot, None, status(i as usize, 0), None);
                });
            }
            let (_, _, status) = wait_any(&mut reqs);
            let remaining = reqs.len();
            for r in reqs.drain(..) {
                r.wait();
            }
            (status.source, remaining)
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (1, 2));
    }

    #[test]
    fn double_complete_is_rejected() {
        let k = Kernel::new(CostModel::free());
        k.spawn("main", || {
            let slot = OneShot::current();
            complete(&slot, None, status(0, 0), None);
            complete(&slot, None, status(0, 0), None);
        });
        match k.run() {
            Err(marcel::SimError::ThreadPanicked(msg)) => {
                assert!(msg.contains("put called twice"), "{msg}");
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }
}
