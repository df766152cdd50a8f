"""Secure, reliable sensor-data uplink.

A small machine-to-machine protocol stack for gathering timestamped sensor
rows from mobile units into a central store:

* :mod:`senselink.crypto` -- RSA/AES primitives and user identification.
* :mod:`senselink.codec` -- canonical serialization, compression, wire formats.
* :mod:`senselink.client` -- sans-I/O session engine with windowed delivery.
* :mod:`senselink.server` -- stateless ingest core and socket daemon.
* :mod:`senselink.storage` -- SQLite row storage, in a file or in memory.
* :mod:`senselink.sim` -- deterministic network/workload simulator.
* :mod:`senselink.cli` -- operator command line.
"""

__version__ = "0.1.0"
