"""Quickstart: monitor an RSS feed with a three-line P2PML subscription.

Run with:  python examples/quickstart.py
"""

from repro.monitor import P2PMSystem
from repro.workloads import RSSFeedSimulator
from repro.xmlmodel import pretty_xml


def main() -> None:
    # 1. A tiny monitoring deployment: the monitored site and a monitor peer.
    system = P2PMSystem(seed=1)
    site = system.add_peer("news.example.org")
    monitor = system.add_peer("monitor.example.org")

    # 2. The monitored system: an RSS feed that changes over time.
    feed = RSSFeedSimulator("http://news.example.org/rss", initial_entries=4, seed=1)
    site.register_feed(feed.feed_url, feed.snapshot)

    # 3. A P2PML subscription: tell me about every new entry.  subscribe()
    #    returns a SubscriptionHandle; max_results opts into a bounded
    #    result buffer readable via handle.results().
    handle = monitor.subscribe(
        """
        for $x in rssFeed(<p>news.example.org</p>)
        where $x.kind = "add"
        return <fresh-entry feed="{$x.feed}">{$x.entry}</fresh-entry>
        by publish as channel "freshNews";
        """,
        sub_id="fresh-news",
        max_results=100,
    )
    system.run()  # deliver the deployment messages

    print(f"Deployed monitoring plan ({handle.sub_id}, status={handle.status}):")
    print(handle.plan.describe())

    # 4. Drive the monitored system: the alerter polls the feed as it evolves.
    alerter = site.alerter("rssFeed")
    alerter.poll()  # baseline snapshot
    for _ in range(8):
        feed.tick()
        alerter.poll()
    system.run()  # deliver the channel messages to the monitor

    # 5. The results arrived at the monitor peer on channel #freshNews.
    results = handle.results()
    print(f"\n{len(results)} new entries detected:")
    for item in results:
        print("  " + pretty_xml(item).strip().replace("\n", " "))

    # The compile counters show what the plan compiler fused for this
    # subscription (handle.stats()["compile"] is system-wide).
    compile_stats = handle.stats()["compile"]
    print(f"\nCompiled execution: {compile_stats['segments_fused']} segment(s) fused, "
          f"{compile_stats['stages_fused']} stage(s), "
          f"{compile_stats['pipelines_active']} pipeline(s) active")

    # 6. The handle drives the whole lifecycle: cancelling tears down the
    #    operators, closes the streams and retracts the advertisements.
    handle.cancel()
    print(f"\nAfter cancel: status={handle.status}, "
          f"stream descriptions left: {len(system.stream_db.all_stream_descriptions())}")


if __name__ == "__main__":
    main()
