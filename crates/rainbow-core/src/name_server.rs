//! The Rainbow name server.
//!
//! "The name server stores metadata of all Rainbow sites, such as the id and
//! end point specifications. Also maintained in the name server are the
//! database fragmentation, replication and distribution schema. Any site can
//! query the name server to get pertinent information." (Section 2)
//!
//! There is exactly one name server per Rainbow instance. It runs as its own
//! node on the simulated network and answers [`Msg::NsGetSchema`] requests
//! with the full schema, so sites (and clients that want to inspect the
//! configuration) obtain their metadata through counted messages rather than
//! shared memory. Its thread blocks in the mailbox until a message arrives,
//! and [`Msg::Stop`] there, put by its handle, ends it.

use crate::messages::Msg;
use crossbeam_channel::Receiver;
use rainbow_common::config::{DatabaseSchema, DistributionSchema};
use rainbow_net::{Envelope, NetHandle, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Handle to a running name server.
pub struct NameServer {
    /// Posts to its mailbox.
    net: NetHandle<Msg>,
    lookups: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
    database: DatabaseSchema,
    distribution: DistributionSchema,
}

impl NameServer {
    /// Spawns the name server thread, serving the given schemas on the
    /// [`NodeId::NameServer`] mailbox.
    pub fn spawn(
        net: NetHandle<Msg>,
        mailbox: Receiver<Envelope<Msg>>,
        database: DatabaseSchema,
        distribution: DistributionSchema,
    ) -> Self {
        let lookups = Arc::new(AtomicU64::new(0));
        let handle = net.clone();
        let thread_lookups = Arc::clone(&lookups);
        let db = database.clone();
        let dist = distribution.clone();
        let thread = std::thread::Builder::new()
            .name("rainbow-nameserver".into())
            .spawn(move || run_name_server(net, mailbox, db, dist, thread_lookups))
            .expect("failed to spawn name server thread");
        NameServer {
            net: handle,
            lookups,
            thread: Some(thread),
            database,
            distribution,
        }
    }

    /// The database schema served by this name server.
    pub fn database(&self) -> &DatabaseSchema {
        &self.database
    }

    /// The distribution schema served by this name server.
    pub fn distribution(&self) -> &DistributionSchema {
        &self.distribution
    }

    /// Number of schema lookups answered so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Stops the name server thread: [`Msg::Stop`] goes into its mailbox.
    pub fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.net.post(NodeId::NameServer, Msg::Stop);
        let _ = thread.join();
    }
}

impl Drop for NameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_name_server(
    net: NetHandle<Msg>,
    mailbox: Receiver<Envelope<Msg>>,
    database: DatabaseSchema,
    distribution: DistributionSchema,
    lookups: Arc<AtomicU64>,
) {
    while let Ok(envelope) = mailbox.recv() {
        match envelope.payload {
            Msg::NsGetSchema => {
                lookups.fetch_add(1, Ordering::Relaxed);
                let reply = Msg::NsSchema {
                    database: database.clone(),
                    distribution: distribution.clone(),
                };
                let _ = net.send(NodeId::NameServer, envelope.from, reply);
            }
            Msg::Stop => return,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;
    use rainbow_net::{NetworkConfig, SimNetwork};
    use std::time::Duration;

    fn schemas() -> (DatabaseSchema, DistributionSchema) {
        let dist = DistributionSchema::one_site_per_host(3);
        let db = DatabaseSchema::uniform(4, 0, &dist.site_ids(), 2).unwrap();
        (db, dist)
    }

    #[test]
    fn name_server_answers_schema_lookups() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let ns_mailbox = net.register(NodeId::NameServer);
        let (db, dist) = schemas();
        let ns = NameServer::spawn(net.handle(), ns_mailbox, db.clone(), dist.clone());

        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        net.handle()
            .send(client, NodeId::NameServer, Msg::NsGetSchema)
            .unwrap();
        let reply = client_mailbox
            .recv_timeout(Duration::from_millis(500))
            .expect("no schema reply");
        match reply.payload {
            Msg::NsSchema {
                database,
                distribution,
            } => {
                assert_eq!(database, db);
                assert_eq!(distribution, dist);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(ns.lookups(), 1);
        assert_eq!(ns.database().len(), 4);
        assert_eq!(ns.distribution().len(), 3);
    }

    #[test]
    fn name_server_ignores_unrelated_messages() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let ns_mailbox = net.register(NodeId::NameServer);
        let (db, dist) = schemas();
        let ns = NameServer::spawn(net.handle(), ns_mailbox, db, dist);

        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        net.handle()
            .send(
                client,
                NodeId::NameServer,
                Msg::AcpAck {
                    txn: rainbow_common::TxnId::new(SiteId(0), 1),
                },
            )
            .unwrap();
        assert!(client_mailbox
            .recv_timeout(Duration::from_millis(100))
            .is_err());
        assert_eq!(ns.lookups(), 0);
    }

    #[test]
    fn shutdown_stops_the_thread() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let ns_mailbox = net.register(NodeId::NameServer);
        let (db, dist) = schemas();
        let mut ns = NameServer::spawn(net.handle(), ns_mailbox, db, dist);
        ns.shutdown();
        // Second shutdown is a no-op.
        ns.shutdown();
    }
}
