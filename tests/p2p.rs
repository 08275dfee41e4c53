//! Point-to-point MPI semantics, end to end through the full stack
//! (generic layer → ADI engine → devices → Madeleine → simulated links).

use mpich::{run_world, Placement, Status, WorldConfig};
use simnet::{Protocol, Topology};

fn two_ranks<T: Send + 'static>(
    f: impl Fn(&mpich::Communicator) -> T + Send + Sync + 'static,
) -> Vec<T> {
    run_world(
        Topology::single_network(2, Protocol::Sisci),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        f,
    )
    .expect("world completes")
}

#[test]
fn blocking_send_recv_roundtrip() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            ep.send(&[1u8, 2, 3, 4, 5], 1, 42).unwrap();
            let (data, status) = ep.recv::<Vec<u8>>(16, Some(1), Some(43)).unwrap();
            (data, status)
        } else {
            let (data, status) = ep.recv::<Vec<u8>>(16, Some(0), Some(42)).unwrap();
            let reply: Vec<u8> = data.iter().rev().copied().collect();
            ep.send(&reply, 0, 43).unwrap();
            (data, status)
        }
    });
    assert_eq!(results[0].0, vec![5, 4, 3, 2, 1]);
    assert_eq!(results[1].0, vec![1, 2, 3, 4, 5]);
    assert_eq!(
        results[1].1,
        Status {
            source: 0,
            tag: 42,
            len: 5
        }
    );
    assert_eq!(
        results[0].1,
        Status {
            source: 1,
            tag: 43,
            len: 5
        }
    );
}

#[test]
fn zero_byte_messages() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            ep.send(&[0u8; 0], 1, 0).unwrap();
            ep.recv::<Vec<u8>>(0, Some(1), Some(1)).unwrap().1.len
        } else {
            let (data, _) = ep.recv::<Vec<u8>>(0, Some(0), Some(0)).unwrap();
            assert!(data.is_empty());
            ep.send(&[0u8; 0], 0, 1).unwrap();
            0
        }
    });
    assert_eq!(results, vec![0, 0]);
}

#[test]
fn tag_selective_matching() {
    // Rank 0 sends tags 5 then 9; rank 1 receives tag 9 FIRST, then 5.
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            ep.send(&[55u8], 1, 5).unwrap();
            ep.send(&[99u8], 1, 9).unwrap();
            Vec::new()
        } else {
            let (nine, s9) = ep.recv::<Vec<u8>>(8, Some(0), Some(9)).unwrap();
            let (five, s5) = ep.recv::<Vec<u8>>(8, Some(0), Some(5)).unwrap();
            assert_eq!(s9.tag, 9);
            assert_eq!(s5.tag, 5);
            vec![nine[0], five[0]]
        }
    });
    assert_eq!(results[1], vec![99, 55]);
}

#[test]
fn any_source_any_tag() {
    let results = run_world(
        Topology::single_network(4, Protocol::Bip),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..3 {
                    let (data, status) = ep.recv::<Vec<u8>>(8, None, None).unwrap();
                    assert_eq!(data[0] as usize, status.source);
                    assert_eq!(status.tag, status.source as i32 * 10);
                    seen.push(status.source);
                }
                seen.sort_unstable();
                seen
            } else {
                let me = comm.rank();
                ep.send(&[me as u8], 0, me as i32 * 10).unwrap();
                Vec::new()
            }
        },
    )
    .unwrap();
    assert_eq!(results[0], vec![1, 2, 3]);
}

#[test]
fn per_pair_message_order_is_fifo() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            for i in 0..20u8 {
                // Alternate sizes so eager/rendezvous interleave (the
                // SCI switch point is 8 KB).
                let size = if i % 3 == 0 { 16 * 1024 } else { 8 };
                let mut data = vec![0u8; size];
                data[0] = i;
                ep.send(&data, 1, 7).unwrap();
            }
            Vec::new()
        } else {
            let mut order = Vec::new();
            for _ in 0..20 {
                let (data, _) = ep.recv::<Vec<u8>>(32 * 1024, Some(0), Some(7)).unwrap();
                order.push(data[0]);
            }
            order
        }
    });
    assert_eq!(results[1], (0..20u8).collect::<Vec<_>>());
}

#[test]
fn isend_irecv_wait() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            let r1 = ep.isend(vec![1u8; 100], 1, 1).unwrap();
            let r2 = ep.isend(vec![2u8; 200], 1, 2).unwrap();
            mpich::wait_all(vec![r1, r2]);
            0
        } else {
            // Post both receives before any data exists, out of order.
            let r2 = ep.irecv(256, Some(0), Some(2)).unwrap();
            let r1 = ep.irecv(256, Some(0), Some(1)).unwrap();
            let (d2, s2) = r2.wait_data();
            let (d1, s1) = r1.wait_data();
            assert_eq!((d1.len(), s1.len), (100, 100));
            assert_eq!((d2.len(), s2.len), (200, 200));
            assert!(d1.iter().all(|&b| b == 1));
            assert!(d2.iter().all(|&b| b == 2));
            1
        }
    });
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn request_test_polls_without_blocking() {
    let results = two_ranks(|comm| {
        if comm.rank() == 0 {
            // Delay the send so rank 1's first test() sees "not done".
            marcel::advance(marcel::VirtualDuration::from_micros(500));
            comm.endpoint().send(&[7u8], 1, 0).unwrap();
            true
        } else {
            let mut req = comm.endpoint().irecv(8, Some(0), Some(0)).unwrap();
            let first = req.test();
            while !req.test() {
                marcel::sleep(marcel::VirtualDuration::from_micros(50));
            }
            let (data, _) = req.wait_data();
            assert_eq!(data, vec![7]);
            !first
        }
    });
    assert!(results[1], "first test must have been false");
}

#[test]
fn sendrecv_swaps_without_deadlock() {
    let results = two_ranks(|comm| {
        let me = comm.rank();
        let other = 1 - me;
        let (incoming, status) = comm
            .endpoint()
            .sendrecv::<_, Vec<u8>>(&[me as u8; 64], other, 3, 64, Some(other), Some(3))
            .unwrap();
        assert_eq!(status.source, other);
        incoming[0]
    });
    assert_eq!(results, vec![1, 0]);
}

#[test]
fn head_to_head_large_sends_rendezvous_both_ways() {
    // Both ranks isend 1 MB to each other, then both receive: the
    // rendezvous handshakes cross on the wire.
    let n = 1 << 20;
    let results = two_ranks(move |comm| {
        let ep = comm.endpoint();
        let me = comm.rank();
        let payload = vec![me as u8; n];
        let send = ep.isend(payload, 1 - me, 0).unwrap();
        let (data, status) = ep.recv::<Vec<u8>>(n, Some(1 - me), Some(0)).unwrap();
        send.wait_send();
        assert_eq!(status.len, n);
        data.iter().all(|&b| b == (1 - me) as u8)
    });
    assert_eq!(results, vec![true, true]);
}

#[test]
fn probe_then_recv_exact_message() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            ep.send(&[9u8; 321], 1, 17).unwrap();
            0
        } else {
            let status = ep.probe(None, None).unwrap();
            assert_eq!(status.len, 321);
            assert_eq!(status.tag, 17);
            let (data, _) = ep
                .recv::<Vec<u8>>(status.len, Some(status.source), Some(status.tag))
                .unwrap();
            data.len()
        }
    });
    assert_eq!(results[1], 321);
}

#[test]
fn iprobe_reports_absence_and_presence() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            marcel::advance(marcel::VirtualDuration::from_micros(300));
            ep.send(&[1u8], 1, 0).unwrap();
            true
        } else {
            let before = ep.iprobe(Some(0), Some(0)).unwrap().is_none();
            // Wait out the sender's delay.
            while ep.iprobe(Some(0), Some(0)).unwrap().is_none() {
                marcel::sleep(marcel::VirtualDuration::from_micros(50));
            }
            let (data, _) = ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap();
            assert_eq!(data, vec![1]);
            before
        }
    });
    assert!(results[1]);
}

#[test]
fn truncation_aborts_the_run() {
    let err = run_world(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                ep.send(&[0u8; 64], 1, 0).unwrap();
            } else {
                ep.recv::<Vec<u8>>(16, Some(0), Some(0)).unwrap();
            }
        },
    );
    match err {
        Err(marcel::SimError::ThreadPanicked(msg)) => {
            assert!(msg.contains("truncation"), "{msg}");
        }
        other => panic!("expected truncation abort, got {other:?}"),
    }
}

#[test]
fn large_message_integrity_through_rendezvous() {
    let n = 3 * 1024 * 1024 + 137; // odd size, well past every switch point
    let results = two_ranks(move |comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            let payload: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            ep.send(&payload, 1, 0).unwrap();
            0u64
        } else {
            let (data, status) = ep.recv::<Vec<u8>>(n, Some(0), Some(0)).unwrap();
            assert_eq!(status.len, n);
            assert!(data
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (i * 31 % 251) as u8));
            data.len() as u64
        }
    });
    assert_eq!(results[1], n as u64);
}

#[test]
fn eager_rendezvous_boundary_sizes() {
    // SCI switch point is 8192: exercise n-1, n, n+1.
    let sp = Protocol::Sisci.switch_point();
    let results = two_ranks(move |comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            for n in [sp - 1, sp, sp + 1] {
                let payload: Vec<u8> = (0..n).map(|i| (i % 256) as u8).collect();
                ep.send(&payload, 1, n as i32).unwrap();
            }
            true
        } else {
            for n in [sp - 1, sp, sp + 1] {
                let (data, status) = ep.recv::<Vec<u8>>(sp + 1, Some(0), Some(n as i32)).unwrap();
                assert_eq!(status.len, n);
                assert!(data.iter().enumerate().all(|(i, &b)| b == (i % 256) as u8));
            }
            true
        }
    });
    assert_eq!(results, vec![true, true]);
}

#[test]
fn typed_send_recv() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            ep.send(&[1.5f64, -2.5, 1e100], 1, 0).unwrap();
            ep.send(&[i32::MIN, 0, i32::MAX], 1, 1).unwrap();
            (Vec::new(), Vec::new())
        } else {
            let (floats, _) = ep.recv_count::<f64>(3, Some(0), Some(0)).unwrap();
            let (ints, _) = ep.recv_count::<i32>(3, Some(0), Some(1)).unwrap();
            (floats, ints)
        }
    });
    assert_eq!(results[1].0, vec![1.5, -2.5, 1e100]);
    assert_eq!(results[1].1, vec![i32::MIN, 0, i32::MAX]);
}

#[test]
fn derived_datatype_transfer() {
    use mpich::{BaseType, Datatype};
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        // A 4x4 f64 matrix; send the 2nd column.
        let dt = Datatype::vector(4, 1, 4, Datatype::base(BaseType::Float64));
        if comm.rank() == 0 {
            let matrix: Vec<f64> = (0..16).map(|i| i as f64).collect();
            ep.send_datatype(&mpich::to_bytes(&matrix), &dt, 1, 1, 0)
                .unwrap();
            Vec::new()
        } else {
            let mut buf = vec![0u8; 16 * 8];
            ep.recv_datatype(&mut buf, &dt, 1, Some(0), Some(0))
                .unwrap();
            let matrix: Vec<f64> = mpich::from_bytes(&buf);
            // Column elements land at positions 1, 5, 9, 13... actually
            // at 0, 4, 8, 12 of the receive layout (same datatype).
            vec![matrix[0], matrix[4], matrix[8], matrix[12]]
        }
    });
    assert_eq!(results[1], vec![0.0, 4.0, 8.0, 12.0]);
}

#[test]
fn wait_any_returns_first_arrival() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            marcel::advance(marcel::VirtualDuration::from_micros(100));
            ep.send(&[2u8], 1, 2).unwrap(); // tag 2 first
            marcel::advance(marcel::VirtualDuration::from_micros(2_000));
            ep.send(&[1u8], 1, 1).unwrap();
            0
        } else {
            let mut reqs = vec![
                ep.irecv(8, Some(0), Some(1)).unwrap(),
                ep.irecv(8, Some(0), Some(2)).unwrap(),
            ];
            let (_, data, status) = mpich::wait_any(&mut reqs);
            // The tag-2 message was sent 2ms before tag-1.
            assert_eq!(status.tag, 2);
            let rest = reqs.remove(0).wait_data();
            assert_eq!(rest.1.tag, 1);
            data.unwrap()[0]
        }
    });
    assert_eq!(results[1], 2);
}

/// Every request — endpoint receives through `wait_all` and `wait_any`,
/// a persistent receive, a send — returns a communicator-local status
/// on a split communicator whose local ranks are not its world ranks.
#[test]
fn split_communicator_requests_return_local_statuses() {
    let results = run_world(
        Topology::single_network(4, Protocol::Sisci),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            // Reverse order inside each pair: world 1, 0 and world 3, 2
            // become local 0, 1.
            let me = comm.rank() as i32;
            let sub = comm.split(me / 2, -me).expect("defined color");
            assert_ne!(sub.rank(), comm.rank());
            let ep = sub.endpoint();
            let mut sources = Vec::new();
            if sub.rank() == 0 {
                for tag in 1..=4 {
                    ep.send(&[tag as u8], 1, tag).unwrap();
                }
                sub.send_init(vec![5], 1, 5).start().wait_send();
                let send = ep.isend(&[6u8], 1, 6).unwrap();
                sources.push(send.wait().1.source);
            } else {
                let reqs = vec![
                    ep.irecv(8, Some(0), Some(1)).unwrap(),
                    ep.irecv(8, None, Some(2)).unwrap(),
                ];
                sources.extend(mpich::wait_all(reqs).iter().map(|(_, st)| st.source));
                let mut reqs = vec![
                    ep.irecv(8, None, Some(3)).unwrap(),
                    ep.irecv(8, Some(0), Some(4)).unwrap(),
                ];
                while !reqs.is_empty() {
                    sources.push(mpich::wait_any(&mut reqs).2.source);
                }
                let (_, st) = sub.recv_init(8, None, Some(5)).start().wait_data();
                sources.push(st.source);
                let (_, st) = ep.irecv(8, None, Some(6)).unwrap().wait_data();
                sources.push(st.source);
            }
            (sub.rank(), sources)
        },
    )
    .expect("world completes");
    for (rank, sources) in results {
        let want = if rank == 0 { vec![0] } else { vec![0; 6] };
        assert_eq!(sources, want, "local rank {rank}");
    }
}

#[test]
fn self_send_through_ch_self() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        let me = comm.rank();
        let send = ep.isend(vec![me as u8; 8], me, 0).unwrap();
        let (data, status) = ep.recv::<Vec<u8>>(8, Some(me), Some(0)).unwrap();
        send.wait_send();
        assert_eq!(status.source, me);
        data[0] as usize == me
    });
    assert_eq!(results, vec![true, true]);
}

#[test]
fn unexpected_messages_buffer_until_recv() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            for i in 0..5u8 {
                ep.send(&[i], 1, i as i32).unwrap();
            }
            0
        } else {
            // Let everything arrive unexpected first.
            marcel::sleep(marcel::VirtualDuration::from_millis(5));
            let mut sum = 0usize;
            // Drain in reverse tag order to prove matching is by tag,
            // not arrival.
            for i in (0..5).rev() {
                let (data, _) = ep.recv::<Vec<u8>>(8, Some(0), Some(i)).unwrap();
                assert_eq!(data[0], i as u8);
                sum += data[0] as usize;
            }
            sum
        }
    });
    assert_eq!(results[1], 10);
}

#[test]
fn persistent_requests_restart() {
    let results = two_ranks(|comm| {
        if comm.rank() == 0 {
            let psend = comm.send_init(vec![42; 128], 1, 3);
            for _ in 0..4 {
                psend.start().wait_send();
            }
            0
        } else {
            let precv = comm.recv_init(256, Some(0), Some(3));
            let mut total = 0usize;
            for _ in 0..4 {
                let (data, status) = precv.start().wait_data();
                assert_eq!(status.source, 0);
                assert_eq!(data, vec![42; 128]);
                total += data.len();
            }
            total
        }
    });
    assert_eq!(results[1], 512);
}

#[test]
fn persistent_send_overlaps_with_computation() {
    let results = two_ranks(|comm| {
        if comm.rank() == 0 {
            let psend = comm.send_init(vec![1; 64], 1, 0);
            let req = psend.start();
            // Compute while the send progresses.
            marcel::advance(marcel::VirtualDuration::from_micros(100));
            req.wait_send();
            marcel::now().as_micros_f64() < 150.0
        } else {
            comm.endpoint()
                .recv::<Vec<u8>>(64, Some(0), Some(0))
                .unwrap();
            true
        }
    });
    assert!(results[0], "persistent send must overlap computation");
}

#[test]
fn ssend_completes_only_after_recv_posted() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            // Tiny message: plain send would complete eagerly, long
            // before the receiver shows up at t=2ms.
            ep.ssend(&[1u8, 2, 3], 1, 0).unwrap();
            marcel::now()
        } else {
            marcel::sleep(marcel::VirtualDuration::from_millis(2));
            let (data, _) = ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap();
            assert_eq!(data, vec![1, 2, 3]);
            marcel::now()
        }
    });
    assert!(
        results[0].as_secs_f64() >= 0.002,
        "ssend returned at {} before the receive was posted",
        results[0]
    );
}

#[test]
fn plain_send_is_not_synchronous() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            ep.send(&[1u8], 1, 0).unwrap();
            marcel::now()
        } else {
            marcel::sleep(marcel::VirtualDuration::from_millis(2));
            ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap();
            marcel::now()
        }
    });
    assert!(
        results[0].as_secs_f64() < 0.001,
        "eager send must complete before the late receive: {}",
        results[0]
    );
}

#[test]
fn issend_overlaps_then_synchronizes() {
    let results = two_ranks(|comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            let req = ep.issend(vec![7u8; 16], 1, 0).unwrap();
            // Free to compute while the handshake is pending.
            marcel::advance(marcel::VirtualDuration::from_micros(100));
            req.wait_send();
            marcel::now()
        } else {
            marcel::sleep(marcel::VirtualDuration::from_millis(1));
            ep.recv::<Vec<u8>>(16, Some(0), Some(0)).unwrap();
            marcel::now()
        }
    });
    assert!(results[0].as_secs_f64() >= 0.001);
}

#[test]
fn ssend_through_smp_plug() {
    let results = run_world(
        {
            let mut t = Topology::new();
            let a = t.add_node("a", 2);
            let b = t.add_node("b", 1);
            t.add_network(Protocol::Sisci, [a, b]);
            t
        },
        mpich::Placement::OneRankPerCpu,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            // Ranks 0,1 share node a.
            if comm.rank() == 0 {
                ep.ssend(&[9u8], 1, 0).unwrap();
                marcel::now()
            } else if comm.rank() == 1 {
                marcel::sleep(marcel::VirtualDuration::from_millis(3));
                ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap();
                marcel::now()
            } else {
                marcel::now()
            }
        },
    )
    .unwrap();
    assert!(
        results[0].as_secs_f64() >= 0.003,
        "smp ssend synchronous: {}",
        results[0]
    );
}
