package repro.web

import repro.dom.PageDoc

/** An entity of the synthetic "world" — the hidden database behind a
  * semi-structured website (§2.1: detail pages "are typically populated by
  * data from large underlying databases").
  *
  * `facts` are the entity's true (predicate, value) pairs.  The *seed KB* is
  * always a (possibly biased) sample of world facts, while websites render
  * world facts directly — this separation is what lets the reproduction
  * measure long-tail extraction: entities in the world but not in the KB.
  */
case class WEntity(
    id: String,
    name: String,
    etype: String,
    facts: Vector[(String, String)],
) {
  def values(pred: String): Vector[String] = facts.collect { case (`pred`, v) => v }
}

/** Ground truth for one asserted fact: page `pageId` of `site` asserts
  * (topic, predicate, value) with the object rendered at `xpath`.
  * The renderer emits these as it builds pages, so evaluation needs no
  * manual spot-checking (unlike the paper's CommonCrawl protocol).
  */
case class TruthFact(site: String, pageId: String, xpath: String, predicate: String, value: String)

/** Ground truth topic of a page (absent for non-detail pages). */
case class TopicTruth(site: String, pageId: String, entityId: String, entityName: String)

/** A fully rendered website: pages plus the truth needed for evaluation. */
case class RenderedSite(
    site: String,
    pages: Vector[PageDoc],
    truth: Vector[TruthFact],
    topics: Vector[TopicTruth],
)
