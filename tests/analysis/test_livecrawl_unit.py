"""Focused unit tests for the live-web crawler (§4.3)."""

import pickle
from datetime import date

import pytest

from repro.analysis.livecrawl import LiveCrawler
from repro.experiments.context import ExperimentContext
from repro.filterlist.history import FilterListHistory
from repro.synthesis.world import SyntheticWorld, WorldConfig


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(WorldConfig(n_sites=100, live_top=300))


def history_with(lines, name="L", when=date(2016, 1, 1)):
    history = FilterListHistory(name)
    history.add_revision(when, "\n".join(lines) + "\n")
    return history


class TestLiveCrawler:
    def test_vendor_rule_matches_adopters(self, world):
        histories = {"L": history_with(["||pagefair.com^$third-party"])}
        result = LiveCrawler(world, histories).crawl(check_html=False)
        pagefair_adopters = sum(
            1
            for rank in range(1, world.config.live_top + 1)
            if (p := world.profile_for_rank(rank)).deployment is not None
            and p.deployment.vendor is not None
            and p.deployment.vendor.name == "PageFair"
        )
        # Every reachable PageFair adopter triggers; unreachable sites
        # (~0.6%) may shave a few off.
        assert result.http_matches["L"] >= 0.9 * pagefair_adopters
        assert result.third_party_share("L") == 1.0

    def test_empty_list_matches_nothing(self, world):
        histories = {"E": FilterListHistory("E")}
        # An empty history has no latest revision: crawler must tolerate it.
        crawler = LiveCrawler(world, histories)
        result = crawler.crawl(check_html=False)
        assert result.http_matches.get("E", 0) == 0

    def test_detected_domains_recorded(self, world):
        histories = {"L": history_with(["||blockadblock.com^"])}
        result = LiveCrawler(world, histories).crawl(check_html=False)
        assert len(result.detected_domains["L"]) == result.http_matches["L"]

    def test_matched_scripts_are_anti_adblock_sources(self, world):
        histories = {"L": history_with(["||pagefair.com^$third-party"])}
        result = LiveCrawler(world, histories).crawl(check_html=False)
        from repro.jsast import parse

        assert result.matched_scripts
        for source in result.matched_scripts[:5]:
            parse(source)

    def test_html_matching_optional(self, world):
        histories = {"L": history_with(["###adblock-notice"])}
        no_html = LiveCrawler(world, histories).crawl(check_html=False)
        assert no_html.html_matches["L"] == 0


class TestParallelWaves:
    @pytest.fixture(scope="class")
    def ctx(self):
        return ExperimentContext.create(scale=0.01)

    def test_fork_per_wave_matches_serial(self, ctx):
        """Parallel waves (one fork pool per wave) pickle like the serial crawl."""
        serial = LiveCrawler(ctx.world, ctx.histories).crawl(workers=1)
        parallel = LiveCrawler(ctx.world, ctx.histories).crawl(
            workers=2, wave_size=37
        )
        assert pickle.dumps(parallel) == pickle.dumps(serial)
