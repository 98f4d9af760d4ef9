"""Shared constants and fixtures for the test suite."""
from pathlib import Path

import pytest

from support import LoopbackServer

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def serve():
    """Start scripted loopback servers (see ``LoopbackServer``); each closes when the test ends."""
    servers = []

    def start(outcomes, body=None, tls=False):
        servers.append(LoopbackServer(outcomes, body, tls))
        return servers[-1]

    yield start
    for server in servers:
        server.close()
