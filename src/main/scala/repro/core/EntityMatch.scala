package repro.core

import repro.dom.PageDoc
import repro.kb.KnowledgeBase

/** Page-side entity matching: which text fields of a page match something
  * the KB knows (§3.1.1 Step 1).
  */
object EntityMatch {

  /** A text field whose normalised content is known to the KB. */
  case class Mention(nodeId: Int, xpath: String, norm: String, raw: String)

  /** All KB-known mentions on the page. */
  def mentions(page: PageDoc, kb: KnowledgeBase): Vector[Mention] =
    page.textNodes.collect {
      case n if n.norm.nonEmpty && kb.knownString(n.norm) => Mention(n.id, n.xpath, n.norm, n.text)
    }

  /** The pageSet of Algorithm 1: normalised KB-known strings on the page. */
  def pageStrings(page: PageDoc, kb: KnowledgeBase): Set[String] =
    mentions(page, kb).iterator.map(_.norm).toSet
}
